(* Output checks and the code-quality counts.  Each allocated program
   is judged against the interpreter's run of the same program before
   allocation, never against another output of the code under test. *)

type reference = { value : Interp.value option; cycles : int }

let reference p =
  let r = Interp.run p in
  { value = r.Interp.value; cycles = r.Interp.stats.Interp.cycles }

(* Code quality, summed over a fixed set of allocated programs;
   simulated time is kept as a log-sum of per-program ratios to the
   unallocated program, so a few loop-heavy programs cannot swamp it. *)
type quality = {
  mutable programs : int;
  mutable log_ratios : float list;
  mutable spill_instrs : int;
  mutable moves_kept : int;
  mutable code_instrs : int;
}

let quality () =
  { programs = 0; log_ratios = []; spill_instrs = 0; moves_kept = 0; code_instrs = 0 }

let equal_quality a b =
  a.programs = b.programs
  && List.sort compare a.log_ratios = List.sort compare b.log_ratios
  && a.spill_instrs = b.spill_instrs
  && a.moves_kept = b.moves_kept
  && a.code_instrs = b.code_instrs

(* Summed in sorted order, so the order the programs ran in cannot move
   the last digit. *)
let cycle_ratio q =
  let sum = List.fold_left ( +. ) 0. (List.sort compare q.log_ratios) in
  exp (sum /. float_of_int (max 1 q.programs))

(* Judge one allocated program: machine-code validity and the
   interpreter's result; then fold its quality into [q]. *)
let program ~what ~machine ~ref_ q ~spill_instrs ~moves_kept prog =
  Util.check (what ^ ": machine code")
    (Check.machine_program machine prog = Ok ());
  match Interp.run ~machine prog with
  | r ->
      Util.check (what ^ ": same result as before allocation")
        (Interp.equal_value r.Interp.value ref_.value);
      q.programs <- q.programs + 1;
      q.log_ratios <-
        log
          (float_of_int r.Interp.stats.Interp.cycles
          /. float_of_int (max 1 ref_.cycles))
        :: q.log_ratios;
      q.spill_instrs <- q.spill_instrs + spill_instrs;
      q.moves_kept <- q.moves_kept + moves_kept;
      q.code_instrs <-
        q.code_instrs
        + List.fold_left (fun n f -> n + Cfg.n_instrs f) 0 prog.Cfg.funcs
  | exception e -> Util.check (what ^ ": runs: " ^ Printexc.to_string e) false

(* A daemon reply, reassembled into the program it answers. *)
let reply ~what ~machine ~ref_ q (p : Cfg.program) blobs =
  match List.map Protocol.decode_func_reply blobs with
  | exception e -> Util.check (what ^ ": reply decodes: " ^ Printexc.to_string e) false
  | replies ->
      Util.check (what ^ ": one reply per function")
        (List.length replies = List.length p.Cfg.funcs);
      let sum f = List.fold_left (fun n r -> n + f r) 0 replies in
      program ~what ~machine ~ref_ q
        ~spill_instrs:(sum (fun r -> r.Protocol.spill_instrs))
        ~moves_kept:(sum (fun r -> r.Protocol.moves_kept))
        { p with Cfg.funcs = List.map (fun r -> r.Protocol.func) replies }

(* The one-shot pipeline over the same program, with its reply blobs:
   the daemon must agree with it byte for byte. *)
let one_shot ~what ~machine ~ref_ q (p : Cfg.program) =
  let a =
    Pipeline.allocate_program ~jobs:1 Inputs.algo machine
      (Pipeline.prepare machine (Inputs.fresh p))
  in
  program ~what ~machine ~ref_ q ~spill_instrs:a.Pipeline.spill_instrs
    ~moves_kept:a.Pipeline.moves_kept a.Pipeline.program;
  List.map2 Protocol.encode_func_reply a.Pipeline.results a.Pipeline.finals

let metrics q =
  [
    Util.m "sim_cycles_ratio" "x" (cycle_ratio q);
    Util.m "spill_instrs" "instrs" (float_of_int q.spill_instrs);
    Util.m "moves_kept" "instrs" (float_of_int q.moves_kept);
    Util.m "code_instrs" "instrs" (float_of_int q.code_instrs);
  ]
