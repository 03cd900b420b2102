(* The benchmark:

     main.exe --workload serve-cold|serve-warm|oneshot-suite
              --seed N --seconds S --trace 0|1

   With --trace 0 it measures the workload's end-to-end metrics; with
   --trace 1 it replays the workload's inputs through each layer's
   public functions and reports per-layer metrics instead.  Progress
   and failed checks go to stderr; the last line of stdout is the
   result as one JSON object. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-cold|serve-warm|oneshot-suite --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest -> int_arg seconds v; parse rest
    | "--trace" :: v :: rest -> int_arg trace v; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some (0 | 1 as tr) when t > 0 -> (s, float_of_int t, tr = 1)
    | _ -> usage ()
  in
  (* A daemon that dies mid-run shows as failed requests, not as this
     process killed by SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let attempted, failed, metrics =
    Fun.protect ~finally:Daemon.kill_all (fun () ->
        match (!workload, trace) with
        | "serve-cold", false ->
            let w, ms = Serve.cold ~seed ~seconds in
            (w.Serve.attempted, w.Serve.failed, ms)
        | "serve-warm", false ->
            let w, ms = Serve.warm ~seed ~seconds in
            (w.Serve.attempted, w.Serve.failed, ms)
        | "oneshot-suite", false -> Oneshot.run ~seed ~seconds
        | ("serve-cold" | "serve-warm" | "oneshot-suite"), true ->
            Trace.run ~workload:!workload ~seed
        | _ -> usage ())
  in
  List.iter
    (fun { Util.value; name; _ } ->
      Util.check (name ^ " is a finite number") (Float.is_finite value))
    metrics;
  print_endline
    (Util.result_line ~correct:(!Util.problems = []) ~attempted ~failed metrics)
