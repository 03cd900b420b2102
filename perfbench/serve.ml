(* The two daemon workloads: one client, one connection, a closed loop
   (the next request goes out when the previous reply is in), the way a
   compiler back end waits on its allocator. *)

let round_requests = 100 (* 2,000 functions per cold round *)

(* The first rounds of a seed's stream are its quality set: served
   whatever the run length, checked against the one-shot pipeline, and
   the warm workload's working set (4,000 functions). *)
let quality_rounds = 2
let setup_repeats = 5

(* Latency tails are taken per round, at the highest percentile that
   leaves at least ten of the round's requests beyond it, and the median
   over rounds is reported: one stalled second of the host then moves
   one round's tail, not the run's. *)
type window = {
  tail : float;
  mutable lats : float list;  (* per request, seconds *)
  mutable rounds : float list;  (* per round, seconds *)
  mutable tails : float list;  (* per round, seconds *)
  mutable fns : int;
  mutable attempted : int;
  mutable failed : int;
}

let window ~tail =
  { tail; lats = []; rounds = []; tails = []; fns = 0; attempted = 0; failed = 0 }
let window_s w = List.fold_left ( +. ) 0. w.rounds

(* Send each payload in [order] and wait for its reply; the round's
   time is the sum of its request round trips.  The client heap holds
   only request and reply bytes, so its own GC stays small. *)
let serve_round d w payloads order =
  Gc.full_major ();
  let replies = Array.make (Array.length payloads) (Error "not sent") in
  let total = ref 0. and lats = ref [] in
  List.iter
    (fun i ->
      let t0 = Util.now_ns () in
      let r = Daemon.alloc d payloads.(i) in
      let dt = Util.secs (Util.now_ns () - t0) in
      total := !total +. dt;
      w.attempted <- w.attempted + 1;
      (match r with
      | Ok blobs ->
          lats := dt :: !lats;
          w.fns <- w.fns + List.length blobs
      | Error msg ->
          prerr_endline ("request failed: " ^ msg);
          w.failed <- w.failed + 1);
      replies.(i) <- r)
    order;
  w.rounds <- !total :: w.rounds;
  if !lats <> [] then begin
    w.lats <- !lats @ w.lats;
    w.tails <- Util.percentile !lats w.tail :: w.tails
  end;
  replies

let in_order n = List.init n Fun.id

let rec chunks = function
  | [] -> []
  | order ->
      let rec split k acc = function
        | x :: rest when k > 0 -> split (k - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let round, rest = split round_requests [] order in
      round :: chunks rest
let round_programs ~seed r =
  Inputs.stream ~seed ~first:(r * round_requests) ~count:round_requests

let round_payloads ~seed r =
  Array.of_list (List.map Inputs.encode_request (round_programs ~seed r))

(* Daemon start-up plus input generation, [setup_repeats] times; the
   first daemon and inputs are kept (forked while this process was
   still small, so the daemon's peak memory is its own), the others
   stopped at once.  Returns the median. *)
let set_up make_inputs =
  let first = ref None and times = ref [] in
  for _ = 1 to setup_repeats do
    let (d, inputs), dt =
      Util.time (fun () ->
          let d = Daemon.start () in
          (d, make_inputs ()))
    in
    times := dt :: !times;
    match !first with
    | None -> first := Some (d, inputs)
    | Some _ -> ignore (Daemon.stop d)
  done;
  let d, inputs = Option.get !first in
  (d, inputs, Util.median !times)

(* Rebuild round [r]'s programs from the seed and judge the replies. *)
let check_round ~what ~seed ~q r replies =
  List.iteri
    (fun i p ->
      match replies.(i) with
      | Ok blobs ->
          Checks.reply
            ~what:(Printf.sprintf "%s request %d" what ((r * round_requests) + i))
            ~machine:Inputs.serve_machine ~ref_:(Checks.reference p) q p blobs
      | Error _ -> ())
    (round_programs ~seed r)

let e2e ~w ~q ~rss ~setup_s =
  let compile_s = Util.median w.rounds in
  [
    Util.m "fns_per_s" "fn/s"
      (float_of_int w.fns /. float_of_int (List.length w.rounds) /. compile_s);
    Util.m "latency_p50_ms" "ms" (1000. *. Util.percentile w.lats 0.5);
    Util.m "latency_tail_ms" "ms" (1000. *. Util.median w.tails);
    Util.m "compile_s" "s" compile_s;
    Util.m "compile_s.pdgc" "s" compile_s;
    Util.m "sim_cycles_ratio.pdgc" "x" (Checks.cycle_ratio q);
    Util.m "peak_rss_mb" "MB" rss;
    Util.m "setup_s" "s" setup_s;
  ]
  @ Checks.metrics q

(* Every function is new, so every cache lookup misses and every
   function runs the whole pipeline. *)
let cold ~seed ~seconds =
  let d, first_payloads, setup_s = set_up (fun () -> round_payloads ~seed 0) in
  let w = window ~tail:0.9 in
  let q = Checks.quality () in
  let quality_replies = ref [] in
  let rec go r payloads =
    let replies = serve_round d w payloads (in_order round_requests) in
    let in_quality = r < quality_rounds in
    check_round ~what:"cold" ~seed r replies
      ~q:(if in_quality then q else Checks.quality ());
    if in_quality then quality_replies := (r, replies) :: !quality_replies;
    if window_s w < seconds || r + 1 < quality_rounds then
      go (r + 1) (round_payloads ~seed (r + 1))
  in
  Util.progress "cold: set-up done";
  go 0 first_payloads;
  Util.progress "cold: %d rounds served and checked" (List.length w.rounds);
  let st = Daemon.stats d in
  Util.check "cold: no cache hit" (st.Protocol.cache.Cache.hits = 0);
  Util.check "cold: every function allocated"
    (st.Protocol.funcs_allocated = w.fns && st.Protocol.cache.Cache.misses = w.fns);
  let rss = Daemon.stop d in
  (* The daemon's replies equal the one-shot pipeline's, blob for blob,
     and so do the quality counts over the quality set. *)
  let q1 = Checks.quality () in
  List.iter
    (fun (r, replies) ->
      List.iteri
        (fun i p ->
          let what = Printf.sprintf "one-shot request %d" ((r * round_requests) + i) in
          let blobs =
            Checks.one_shot ~what ~machine:Inputs.serve_machine
              ~ref_:(Checks.reference p) q1 p
          in
          Util.check (what ^ ": daemon reply equal") (replies.(i) = Ok blobs))
        (round_programs ~seed r))
    (List.rev !quality_replies);
  Util.check "cold: quality equals one-shot" (Checks.equal_quality q q1);
  Util.progress "cold: quality set checked against the one-shot pipeline";
  (w, e2e ~w ~q ~rss ~setup_s)

(* One priming pass through the pipeline, then seeded-order replays of
   the same requests: every lookup hits and no function is allocated. *)
let warm ~seed ~seconds =
  let d, payloads, gen_s =
    set_up (fun () ->
        Array.concat (List.init quality_rounds (round_payloads ~seed)))
  in
  let n = Array.length payloads in
  let primed, prime_s =
    Util.time (fun () -> serve_round d (window ~tail:0.95) payloads (in_order n))
  in
  let setup_s = gen_s +. prime_s in
  Util.progress "warm: set-up and priming done";
  let q = Checks.quality () in
  for r = 0 to quality_rounds - 1 do
    check_round ~what:"warm priming" ~seed ~q r
      (Array.sub primed (r * round_requests) round_requests)
  done;
  let st0 = Daemon.stats d in
  (* Each pass over the working set is shuffled and served as two
     rounds of 100 requests, the cold round's size. *)
  let w = window ~tail:0.9 in
  let rng = Rng.create seed in
  let rec go = function
    | [] -> go (chunks (Util.shuffle rng (in_order n)))
    | order :: rest ->
        let replies = serve_round d w payloads order in
        List.iter
          (fun i ->
            Util.check
              (Printf.sprintf "warm: reply %d byte-identical to priming" i)
              (replies.(i) = primed.(i)))
          order;
        if window_s w < seconds || rest <> [] then go rest
  in
  go [];
  Util.progress "warm: %d rounds served and checked" (List.length w.rounds);
  let st1 = Daemon.stats d in
  let delta f = f st1 - f st0 in
  Util.check "warm: no cache miss in the window"
    (delta (fun s -> s.Protocol.cache.Cache.misses) = 0
    && delta (fun s -> s.Protocol.funcs_allocated) = 0);
  Util.check "warm: every function a cache hit"
    (delta (fun s -> s.Protocol.cache.Cache.hits) = w.fns);
  let rss = Daemon.stop d in
  (w, e2e ~w ~q ~rss ~setup_s)
