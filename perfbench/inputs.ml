(* Every input the workloads feed the program, as a pure function of
   the seed. *)

let funcs_per_request = 20
let algo = Pipeline.pdgc_full
let serve_machine = Machine.high_pressure

(* The daemon workloads' requests: small distinct programs in the load
   generator's stream shape (a few blocks, one loop level, light
   calls) — about 92 instructions per function after prepare, where
   fixed per-function costs weigh most.  Program [i] of a seed is
   generated on its own, so a round can be rebuilt for checking without
   keeping the stream in memory. *)
let stream_program ~seed i =
  Gen.generate
    {
      Gen.default with
      Gen.name = Printf.sprintf "req%d" i;
      seed = (seed * 1_000_003) + (i * 7919);
      n_funcs = funcs_per_request;
      blocks = (2, 4);
      stmts = (4, 9);
      max_loop_depth = 1;
      call_density = 0.1;
      pressure = 8;
    }

let stream ~seed ~first ~count =
  List.init count (fun j -> stream_program ~seed (first + j))

let encode_request ?(machine = serve_machine) p =
  Protocol.encode_request
    (Protocol.Alloc
       { machine; algo = algo.Allocator.name; program = Protocol.Binary p })

let fresh p = { p with Cfg.funcs = List.map Cfg.clone p.Cfg.funcs }

(* The paper's pressure models. *)
let suite_machines =
  [ Machine.high_pressure; Machine.middle_pressure; Machine.low_pressure ]

(* The seven suite programs carry their own profile seeds: they are the
   paper-reproduction inputs, so [--seed] orders the work over them
   instead of redrawing them. *)
let suite () = List.map (fun n -> (n, Suite.program n)) Suite.names

let n_funcs p = List.length p.Cfg.funcs
