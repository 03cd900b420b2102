(* The traced run.  In one domain it replays a workload's request bytes
   through each layer's public functions, timing every call from here
   (monotonic ns and [Gc.minor_words]); the program itself carries no
   tracing.  The [pdgc] round loop is replayed from outside with the
   calls [Pdgc] makes, and its reply blobs must equal the daemon's byte
   for byte, so the replay cannot drift from the allocator. *)

type acc = { mutable ns : int; mutable words : float }
type spans = (string, acc) Hashtbl.t

let span (sp : spans) name f =
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  let r = f () in
  let t1 = Util.now_ns () in
  let w1 = Gc.minor_words () in
  let a =
    match Hashtbl.find_opt sp name with
    | Some a -> a
    | None ->
        let a = { ns = 0; words = 0. } in
        Hashtbl.replace sp name a;
        a
  in
  a.ns <- a.ns + (t1 - t0);
  a.words <- a.words +. (w1 -. w0);
  r

(* The daemon's request path, and the pipeline layers inside it. *)
let serve_layers =
  [ "protocol.decode"; "cfg.body_digest"; "cache.lookup"; "protocol.encode_response" ]

let pipeline_layers =
  [
    "ssa_construct"; "ssa_destruct"; "lower"; "pair_schedule"; "webs"; "loops";
    "liveness"; "igraph"; "spill_cost"; "strength"; "rpg"; "simplify"; "cpg";
    "pdgc_select"; "spill_insert"; "finalize"; "protocol.encode_reply";
  ]

let count_names =
  [
    "pdgc.rounds"; "pdgc.multi_round_fns"; "igraph.edges"; "cpg.edges";
    "pdgc_select.honored"; "pdgc_select.active_spills";
  ]

type counts = (string, int) Hashtbl.t

let bump (c : counts) name n =
  Hashtbl.replace c name (n + Option.value ~default:0 (Hashtbl.find_opt c name))

(* Interference edges among the function's live ranges, each counted
   once, plus their edges to precolored registers. *)
let igraph_edges g =
  let nodes = Igraph.vnodes g in
  let is_v = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace is_v r ()) nodes;
  List.fold_left
    (fun n r ->
      Igraph.fold_adj g r ~init:n ~f:(fun n u ->
          if Hashtbl.mem is_v u && u < r then n else n + 1))
    0 nodes

(* [Pdgc.allocate Full_preferences] with every call timed: the same
   calls in the same order, so the result is the allocator's own. *)
let pdgc_replay sp (c : counts) (m : Machine.t) prepared =
  let k = m.Machine.k in
  let rec round fn ~temps ~n ~spill_instrs ~spill_slots =
    if n > 64 (* [Pdgc]'s round budget *) then raise (Alloc_common.Failed "pdgc: too many rounds");
    let webs, temps =
      span sp "webs" (fun () ->
          let webs = Webs.run fn in
          (webs, Alloc_common.remap_temps webs temps))
    in
    let fn = webs.Webs.func in
    let loops = span sp "loops" (fun () -> Loops.compute fn) in
    let live = span sp "liveness" (fun () -> Liveness.compute fn) in
    let g = span sp "igraph" (fun () -> Igraph.build fn live) in
    let costs =
      span sp "spill_cost" (fun () ->
          Spill_cost.compute ~loops ~cpt:(Liveness.compact live) fn)
    in
    let a = { Alloc_common.fn; live; graph = g; costs; loops } in
    let str = span sp "strength" (fun () -> Strength.of_analysis a) in
    let rpg =
      span sp "rpg" (fun () -> Rpg.build ~kinds:`All ~cpt:(Igraph.compact g) m fn str)
    in
    let no_spill r = Reg.Tbl.mem temps r in
    let simp =
      span sp "simplify" (fun () ->
          Simplify.run Simplify.Optimistic ~k g ~never_spill:no_spill ()
            ~spill_choice:(fun blocked ->
              let metric r =
                if no_spill r then infinity
                else
                  float_of_int (Spill_cost.spill_cost costs r)
                  /. float_of_int (max 1 (Igraph.degree g r))
              in
              match blocked with
              | [] -> invalid_arg "spill_choice"
              | first :: rest ->
                  List.fold_left
                    (fun acc r -> if metric r < metric acc then r else acc)
                    first rest))
    in
    let cpg = span sp "cpg" (fun () -> Cpg.build ~k g simp) in
    let sel =
      span sp "pdgc_select" (fun () ->
          Pdgc_select.run m g rpg cpg str
            (Pdgc_select.params ~no_spill ~spill_risk:simp.Simplify.potential_spills
               ~policy:Pdgc_select.Differential ~fallback_nonvolatile_first:false ()))
    in
    bump c "igraph.edges" (igraph_edges g);
    bump c "cpg.edges" (Cpg.n_edges cpg);
    if Reg.Set.is_empty sel.Pdgc_select.spilled then begin
      let alloc =
        span sp "pdgc_select" (fun () ->
            let alloc = Reg.Tbl.create 64 in
            Reg.Set.iter
              (fun r ->
                match Reg.Tbl.find_opt sel.Pdgc_select.colors r with
                | Some col -> Reg.Tbl.replace alloc r col
                | None -> raise (Alloc_common.Failed ("pdgc: uncolored " ^ Reg.to_string r)))
              (Cfg.all_vregs fn);
            alloc)
      in
      let st = sel.Pdgc_select.stats in
      bump c "pdgc.rounds" n;
      bump c "pdgc.multi_round_fns" (if n > 1 then 1 else 0);
      bump c "pdgc_select.honored"
        (st.Pdgc_select.honored_coalesce + st.Pdgc_select.honored_sequential
       + st.Pdgc_select.honored_kind + st.Pdgc_select.honored_limited);
      bump c "pdgc_select.active_spills" st.Pdgc_select.active_spills;
      { Alloc_common.func = fn; alloc; rounds = n; spill_instrs; spill_slots }
    end
    else begin
      let ins, temps =
        span sp "spill_insert" (fun () ->
            let ins = Spill_insert.insert ~rematerialize:false fn sel.Pdgc_select.spilled in
            (ins, Alloc_common.add_spill_temps temps ins))
      in
      round ins.Spill_insert.func ~temps ~n:(n + 1)
        ~spill_instrs:(spill_instrs + ins.Spill_insert.n_spill_instrs)
        ~spill_slots:(spill_slots @ ins.Spill_insert.slots)
    end
  in
  round (Cfg.clone prepared) ~temps:(Reg.Tbl.create 16) ~n:1 ~spill_instrs:0 ~spill_slots:[]

(* One function through the daemon's job, layer by layer. *)
let pipeline_replay sp c m f =
  let ssa = span sp "ssa_construct" (fun () -> Ssa_construct.run f) in
  let d = span sp "ssa_destruct" (fun () -> Ssa_destruct.run ssa) in
  let l = span sp "lower" (fun () -> Lower.func m d) in
  let prepared = span sp "pair_schedule" (fun () -> Pair_schedule.func l) in
  let res = pdgc_replay sp c m prepared in
  let fin = span sp "finalize" (fun () -> Finalize.apply m res) in
  span sp "protocol.encode_reply" (fun () -> Protocol.encode_func_reply res fin)

(* The daemon's job as it runs there, untraced. *)
let pipeline_plain m f =
  let prepared = Pipeline.prepare_func m f in
  let res = Inputs.algo.Allocator.run Allocator.sequential_ctx m prepared in
  Protocol.encode_func_reply res (Finalize.apply m res)

(* The daemon's cache key (digest, name, machine, allocator). *)
let cache_key (m : Machine.t) digest (f : Cfg.func) =
  let buf = Buffer.create 64 in
  Buffer.add_string buf digest;
  Codec.write_string buf f.Cfg.name;
  Codec.write_string buf m.Machine.name;
  List.iter (Codec.write_int buf)
    [ m.Machine.k; m.Machine.n_volatile; m.Machine.n_arg_regs; m.Machine.ret_index;
      m.Machine.limited_size ];
  Buffer.add_char buf
    (match m.Machine.pair_rule with Machine.Parity -> '\000' | Machine.Consecutive -> '\001');
  Codec.write_string buf Inputs.algo.Allocator.name;
  Buffer.contents buf

(* One request through the daemon's path: decode, then per function
   digest + cache lookup and, on a miss, the pipeline and the cache
   insert; then the response.  [timed] wraps each layer. *)
type timer = { timed : 'a. string -> (unit -> 'a) -> 'a }

let traced sp = { timed = (fun name f -> span sp name f) }
let untimed = { timed = (fun _ f -> f ()) }

let serve_request { timed } ~job cache payload =
  match timed "protocol.decode" (fun () -> Protocol.decode_request payload) with
  | Protocol.Alloc { machine; program = Protocol.Binary p; _ } ->
      let blobs =
        List.map
          (fun f ->
            let digest = timed "cfg.body_digest" (fun () -> Cfg.body_digest f) in
            let key = timed "cache.lookup" (fun () -> cache_key machine digest f) in
            match timed "cache.lookup" (fun () -> Cache.find cache key) with
            | Some blob -> blob
            | None ->
                let blob = job machine f in
                timed "cache.lookup" (fun () -> Cache.add cache key blob);
                blob)
          p.Cfg.funcs
      in
      ignore (timed "protocol.encode_response" (fun () -> Protocol.encode_response (Protocol.Funcs blobs)));
      blobs
  | _ -> failwith "trace: not a binary allocation request"

(* The serve workloads' traced inputs: the first 1,000 functions of the
   seed's stream. *)
let trace_requests = 50

(* Warm-path passes are short, so they are repeated. *)
let warm_passes = 5

(* Seconds spent on one path by the daemon (at the client), by the
   untraced in-process replay and by the traced one. *)
type path = { mutable daemon : float; mutable plain : float; mutable traced : float }

let run ~workload ~seed =
  let d = Daemon.start () in
  let inputs =
    match workload with
    | "oneshot-suite" ->
        List.concat_map
          (fun m -> List.map (fun (_, p) -> (m, p)) (Inputs.suite ()))
          Inputs.suite_machines
    | _ ->
        List.map
          (fun p -> (Inputs.serve_machine, p))
          (Inputs.stream ~seed ~first:0 ~count:trace_requests)
  in
  let warm = workload = "serve-warm" in
  let payloads = List.map (fun (machine, p) -> Inputs.encode_request ~machine p) inputs in
  let n_fns = List.fold_left (fun n (_, p) -> n + Inputs.n_funcs p) 0 inputs in
  let attempted = ref 0 and failed = ref 0 in
  (* Both sides first serve the same programs for another register
     file, untimed, so that neither pays alone for growing its heap. *)
  let warm_up_machine = Machine.make ~name:"warm-up" ~k:20 () in
  let warm_up_cache = Cache.create ~capacity:0 in
  List.iter
    (fun (_, p) ->
      let payload = Inputs.encode_request ~machine:warm_up_machine p in
      Util.check "trace: daemon warm-up served" (Result.is_ok (Daemon.alloc d payload));
      ignore (serve_request untimed ~job:pipeline_plain warm_up_cache payload))
    inputs;
  (* Each request goes to the daemon, the untraced replay and the traced
     one in turn (the in-process order alternating), so a slow spell of
     the host weighs on all three alike. *)
  let plain_cache = Cache.create ~capacity:0 and traced_cache = Cache.create ~capacity:0 in
  let cold_sp : spans = Hashtbl.create 32 and c : counts = Hashtbl.create 8 in
  let warm_sp : spans = Hashtbl.create 8 in
  let must_hit _ _ =
    Util.check "trace: warm replay served from the cache" false;
    ""
  in
  let pass path ~sp ~job =
    List.iteri
      (fun i payload ->
        incr attempted;
        let reply, dt = Util.time (fun () -> Daemon.alloc d payload) in
        path.daemon <- path.daemon +. dt;
        let plain () =
          let r, dt = Util.time (fun () -> serve_request untimed ~job:pipeline_plain plain_cache payload) in
          path.plain <- path.plain +. dt;
          r
        in
        let traced () =
          let r, dt = Util.time (fun () -> serve_request (traced sp) ~job traced_cache payload) in
          path.traced <- path.traced +. dt;
          r
        in
        let p, t = if i mod 2 = 0 then let p = plain () in (p, traced ()) else let t = traced () in (plain (), t) in
        match reply with
        | Ok blobs ->
            Util.check "trace: replayed pdgc blobs byte-identical to the daemon's"
              (blobs = t && blobs = p)
        | Error msg ->
            prerr_endline ("request failed: " ^ msg);
            incr failed)
      payloads
  in
  let cold = { daemon = 0.; plain = 0.; traced = 0. } in
  let before_cold = Daemon.stats d in
  pass cold ~sp:cold_sp ~job:(pipeline_replay cold_sp c);
  let after_cold = Daemon.stats d in
  let hot = { daemon = 0.; plain = 0.; traced = 0. } in
  if warm then for _ = 1 to warm_passes do pass hot ~sp:warm_sp ~job:must_hit done;
  let after_warm = Daemon.stats d in
  ignore (Daemon.stop d);
  (* The workload's own path: its times, layers, spans and stats. *)
  let path, layers, path_sp, passes, (st0, st1) =
    if warm then (hot, serve_layers, warm_sp, warm_passes, (after_cold, after_warm))
    else (cold, serve_layers @ pipeline_layers, cold_sp, 1, (before_cold, after_cold))
  in
  let per_pass = float_of_int passes in
  let delta f = float_of_int (f st1 - f st0) /. per_pass in
  let fns = float_of_int n_fns in
  let layer_metrics sp passes name =
    let a = Option.value ~default:{ ns = 0; words = 0. } (Hashtbl.find_opt sp name) in
    let div = fns *. float_of_int passes in
    [
      Util.m (name ^ ".ns_per_fn") "ns" (float_of_int a.ns /. div);
      Util.m (name ^ ".words_per_fn") "words" (a.words /. div);
    ]
  in
  let traced_sum =
    List.fold_left
      (fun s l ->
        s +. match Hashtbl.find_opt path_sp l with Some a -> float_of_int a.ns | None -> 0.)
      0. layers
    *. 1e-9
  in
  (* Each allocator over the same inputs, prepared once. *)
  let prepared =
    List.map (fun (m, p) -> (m, Pipeline.prepare m (Inputs.fresh p))) inputs
  in
  let allocators =
    List.map
      (fun (a : Allocator.t) ->
        let s =
          List.fold_left
            (fun s (m, p) ->
              incr attempted;
              match Util.time (fun () -> Pipeline.allocate_program ~jobs:1 a m p) with
              | _, dt -> s +. dt
              | exception Alloc_common.Failed msg ->
                  prerr_endline (a.Allocator.name ^ " failed: " ^ msg);
                  incr failed;
                  s)
            0. prepared
        in
        Util.m ("allocator." ^ a.Allocator.name) "s" s)
      (Allocator.all ())
  in
  let metrics =
    List.concat_map (layer_metrics path_sp passes) serve_layers
    @ [
        (* Against the untraced replay: the traced sum carries the
           tracing overhead, which is larger than the socket's share. *)
        Util.m "server.residual.ns_per_fn" "ns"
          ((path.daemon -. path.plain) *. 1e9 /. (fns *. per_pass));
      ]
    @ List.concat_map (layer_metrics cold_sp 1) pipeline_layers
    @ allocators
    @ List.map
        (fun n -> Util.m n "count" (float_of_int (Option.value ~default:0 (Hashtbl.find_opt c n))))
        count_names
    @ [
        Util.m "cache.hits" "count" (delta (fun s -> s.Protocol.cache.Cache.hits));
        Util.m "cache.misses" "count" (delta (fun s -> s.Protocol.cache.Cache.misses));
        Util.m "server.batches" "count" (delta (fun s -> s.Protocol.batches));
        Util.m "layers.coverage" "x" (traced_sum /. path.plain);
        Util.m "trace.overhead" "x" (path.traced /. path.plain);
      ]
  in
  (!attempted, !failed, metrics)
