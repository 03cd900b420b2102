(* The paper-reproduction path: [Pipeline.prepare] + [allocate_program]
   in process at jobs=1, every registered allocator over the seven suite
   programs at k = 16, 24 and 32.  No socket, codec or cache. *)

let setup_repeats = 101

type op = { bench : string; prog : Cfg.program; algo : Allocator.t; machine : Machine.t }

let op_name o =
  Printf.sprintf "%s/%s/k%d" o.bench o.algo.Allocator.name o.machine.Machine.k

let is_pdgc o = o.algo == Inputs.algo

(* One operation: prepare and allocate, timed; nothing else.  A full
   major collection first, outside the timer, so that no operation pays
   for garbage an earlier one left: an allocator's time does not depend
   on which allocator the seeded order ran before it. *)
let run_op o =
  let p = Inputs.fresh o.prog in
  Gc.full_major ();
  Util.time (fun () ->
      Pipeline.allocate_program ~jobs:1 o.algo o.machine
        (Pipeline.prepare o.machine p))

let run ~seed ~seconds =
  (* Set-up is generating the suite; it takes milliseconds, so it is
     repeated and the median kept. *)
  let times = ref [] and suite = ref [] in
  for _ = 1 to setup_repeats do
    Gc.full_major ();
    let s, dt = Util.time Inputs.suite in
    times := dt :: !times;
    suite := s
  done;
  let setup_s = Util.median !times in
  let refs = List.map (fun (n, p) -> (n, Checks.reference p)) !suite in
  let ops =
    List.concat_map
      (fun (bench, prog) ->
        List.concat_map
          (fun algo ->
            List.map (fun machine -> { bench; prog; algo; machine }) Inputs.suite_machines)
          (Allocator.all ()))
      !suite
  in
  let rng = Rng.create seed in
  let q = Checks.quality () and q_pdgc = Checks.quality () in
  let fingerprints = Hashtbl.create 256 in
  let lats = ref [] and tails = ref [] and rounds = ref [] and pdgc_rounds = ref [] in
  let attempted = ref 0 and failed = ref 0 and fns = ref 0 in
  let rec round first =
    let total = ref 0. and pdgc = ref 0. and round_lats = ref [] in
    List.iter
      (fun o ->
        incr attempted;
        match run_op o with
        | exception Alloc_common.Failed msg ->
            prerr_endline (op_name o ^ " failed: " ^ msg);
            incr failed
        | a, dt ->
            total := !total +. dt;
            if is_pdgc o then pdgc := !pdgc +. dt;
            round_lats := dt :: !round_lats;
            fns := !fns + Inputs.n_funcs o.prog;
            (* Checks run between operations, outside their times.  The
               first round is judged in full; later rounds must repeat
               its machine code exactly. *)
            let fp = Codec.encode_program a.Pipeline.program in
            if first then begin
              let what = op_name o in
              let ref_ = List.assoc o.bench refs in
              let judge q =
                Checks.program ~what ~machine:o.machine ~ref_ q
                  ~spill_instrs:a.Pipeline.spill_instrs
                  ~moves_kept:a.Pipeline.moves_kept a.Pipeline.program
              in
              judge q;
              if is_pdgc o then judge q_pdgc;
              Util.check (what ^ ": static verifier")
                (Diagnostic.errors (Pipeline.verify_allocated a) = []);
              Hashtbl.replace fingerprints (op_name o) fp
            end
            else
              Util.check (op_name o ^ ": same code every round")
                (Hashtbl.find_opt fingerprints (op_name o) = Some fp))
      (Util.shuffle rng ops);
    lats := !round_lats @ !lats;
    (* The highest percentile with ten of the 168 operations beyond it. *)
    if !round_lats <> [] then tails := Util.percentile !round_lats 0.94 :: !tails;
    rounds := !total :: !rounds;
    pdgc_rounds := !pdgc :: !pdgc_rounds;
    if List.fold_left ( +. ) 0. !rounds < seconds then round false
  in
  round true;
  Util.progress "oneshot: %d rounds run and checked" (List.length !rounds);
  let compile_s = Util.median !rounds in
  let metrics =
    [
      Util.m "fns_per_s" "fn/s"
        (float_of_int !fns /. float_of_int (List.length !rounds) /. compile_s);
      Util.m "latency_p50_ms" "ms" (1000. *. Util.percentile !lats 0.5);
      Util.m "latency_tail_ms" "ms" (1000. *. Util.median !tails);
      Util.m "compile_s" "s" compile_s;
      Util.m "compile_s.pdgc" "s" (Util.median !pdgc_rounds);
      Util.m "sim_cycles_ratio.pdgc" "x" (Checks.cycle_ratio q_pdgc);
      Util.m "peak_rss_mb" "MB" (Util.vmhwm_mb 0);
      Util.m "setup_s" "s" setup_s;
    ]
    @ Checks.metrics q
  in
  (!attempted, !failed, metrics)
