(* A forked pdgcd: the in-process [Server.run] in a child process, with
   a pipe that reports when the socket listens. *)

(* One pool worker.  On this 2-vCPU host a two-worker daemon ran the
   cold stream 1.6x faster but spread 9% between runs against 2% for
   one worker: a request split over both vCPUs waits for the slower,
   and either can be stalled by another tenant. *)
let workers = 1

(* Large enough for the warm working set; small enough that the cold
   stream fills it within its window, so the daemon's peak memory does
   not grow with throughput. *)
let cache_capacity = 4096

type t = { pid : int; client : Client.t }

(* Children not yet reaped, so an aborted run can still stop them. *)
let live : int list ref = ref []

let started = ref 0

let socket_path n =
  (* Relative to the checkout: an absolute path could pass the
     108-byte limit of a Unix socket address. *)
  if not (Sys.file_exists ".bench_build") then Sys.mkdir ".bench_build" 0o755;
  Printf.sprintf ".bench_build/pdgcd-%d-%d.sock" (Unix.getpid ()) n

(* Fork, wait for the listening socket, connect and complete one stats
   round trip: the daemon's set-up as a client sees it.  Must run
   before this process spawns any domain. *)
let start () =
  incr started;
  let socket = socket_path !started in
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let ready () =
        ignore (Unix.write_substring wr "r" 0 1);
        Unix.close wr
      in
      (try
         Server.run ~on_ready:ready
           { Server.socket_path = socket; jobs = workers; cache_capacity }
       with _ -> Unix._exit 1);
      Unix._exit 0
  | pid ->
      live := pid :: !live;
      Unix.close wr;
      let buf = Bytes.create 1 in
      let n = try Unix.read rd buf 0 1 with Unix.Unix_error _ -> 0 in
      Unix.close rd;
      if n <> 1 then failwith "pdgcd did not start";
      let client = Client.connect socket in
      (match Client.stats client with
      | Ok _ -> ()
      | Error msg -> failwith ("pdgcd stats: " ^ msg));
      { pid; client }

let stats t =
  match Client.stats t.client with
  | Ok s -> s
  | Error msg -> failwith ("pdgcd stats: " ^ msg)

(* Peak memory is read from the daemon's own status file before it is
   told to stop; then the child is reaped. *)
let stop t =
  let rss = try Util.vmhwm_mb t.pid with _ -> nan in
  (try ignore (Client.shutdown t.client) with _ -> ());
  Client.close t.client;
  (match Unix.waitpid [] t.pid with
  | _ -> ()
  | exception Unix.Unix_error _ -> ());
  live := List.filter (( <> ) t.pid) !live;
  rss

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := [];
  for n = 1 to !started do
    try Sys.remove (socket_path n) with Sys_error _ -> ()
  done

(* One request, one reply: [Ok blobs] or the daemon's error. *)
let alloc t payload =
  try Client.alloc_encoded t.client payload
  with Protocol.Closed | Protocol.Error _ | Unix.Unix_error _ ->
    Error "connection lost"
