(* Clocks, order statistics, process memory and the result line. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let start_ns = now_ns ()

(* A progress line on stderr, stamped with the seconds since start. *)
let progress fmt =
  Printf.ksprintf
    (fun msg -> Printf.eprintf "[%7.2fs] %s\n%!" (secs (now_ns () - start_ns)) msg)
    fmt

let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs (now_ns () - t0))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples"
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Median of an odd or even sample: mean of the two middle values. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Fisher-Yates over the workload generator's splitmix stream, so an
   order is a pure function of the seed. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Peak resident set (VmHWM) of a live process, in MB. *)
let vmhwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  In_channel.with_open_text path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith ("no VmHWM in " ^ path)
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

(* ---- the result line --------------------------------------------------- *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun { name; value; unit } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number value) unit)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)

(* Failed output checks are collected, reported on stderr, and turn
   [correct] false; they never abort the run. *)
let problems : string list ref = ref []

let check what ok =
  if not ok then begin
    if List.length !problems < 20 then prerr_endline ("check failed: " ^ what);
    problems := what :: !problems
  end
