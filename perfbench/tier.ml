(* Lifecycle of a live [volcomp serve --workers 2] tier and the client
   side of the wire: blocking request/reply calls for control traffic and
   the two-connection closed loop for the measured phase. *)

module Json = Vc_obs.Json
module Protocol = Vc_serve.Protocol

exception Tier_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Tier_error s)) fmt

(* --- connections ------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; dec : Protocol.decoder; buf : Bytes.t }

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; dec = Protocol.decoder (); buf = Bytes.create 65536 }
  | exception e ->
      Unix.close fd;
      raise e

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let rec read_body c =
  match Protocol.next_frame c.dec with
  | Ok (Some body) -> body
  | Error msg -> fail "reply framing: %s" msg
  | Ok None -> (
      match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
      | 0 -> fail "tier closed the connection"
      | n ->
          Protocol.feed c.dec c.buf n;
          read_body c)

let request_frame ~id query =
  Protocol.frame (Json.to_string (Protocol.request_to_json { Protocol.id; deadline_ms = None; query }))

(* One blocking round trip; the payload of an [ok] reply. *)
let call c ~id query =
  write_all c.fd (request_frame ~id query);
  let body = read_body c in
  match Result.bind (Json.parse body) Protocol.reply_of_json with
  | Ok { Protocol.body = Ok payload; _ } -> payload
  | Ok { Protocol.body = Error (code, msg); _ } ->
      fail "%s reply: %s (%s)" (Protocol.kind query) (Protocol.code_to_string code) msg
  | Error msg -> fail "bad reply: %s" msg

(* --- stats payload ----------------------------------------------------------- *)

let path j keys = List.fold_left (fun acc k -> Option.bind acc (fun v -> Json.member v k)) (Some j) keys
let int_at j keys = Option.value (Option.bind (path j keys) Json.to_int) ~default:0

let shard_rows stats = match path stats [ "shards" ] with Some (Json.List rows) -> rows | _ -> []

(* Worker pids, when every one of [workers] shards is alive and answered
   the stats broadcast. *)
let ready_pids ~workers stats =
  let rows = shard_rows stats in
  let live =
    List.filter_map
      (fun row ->
        match (path row [ "alive" ], path row [ "stats" ], Option.bind (path row [ "pid" ]) Json.to_int) with
        | Some (Json.Bool true), Some (Json.Obj _), Some pid -> Some pid
        | _ -> None)
      rows
  in
  if List.length rows = workers && List.length live = workers then Some live else None

(* Supervisor counter (the serve.shard.* family lives there). *)
let supervisor_counter stats name = int_at stats [ "metrics"; "counters"; name ]

(* Sum of one counter over every worker. *)
let worker_counter stats name =
  List.fold_left (fun acc row -> acc + int_at row [ "stats"; "metrics"; "counters"; name ]) 0 (shard_rows stats)

(* Merged power-of-two histogram buckets (lower bound -> count) of one
   histogram over every worker. *)
let worker_buckets stats name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun row ->
      match path row [ "stats"; "metrics"; "histograms"; name; "buckets" ] with
      | Some (Json.List bs) ->
          List.iter
            (function
              | Json.List [ lo; c ] -> (
                  match (Json.to_int lo, Json.to_int c) with
                  | Some lo, Some c ->
                      Hashtbl.replace tbl lo (c + Option.value (Hashtbl.find_opt tbl lo) ~default:0)
                  | _ -> ())
              | _ -> ())
            bs
      | _ -> ())
    (shard_rows stats);
  Hashtbl.fold (fun lo c acc -> (lo, c) :: acc) tbl [] |> List.sort compare

(* --- spawn / readiness / shutdown ------------------------------------------- *)

type t = { pid : int; socket : string; workers : int list; control : conn }

(* Every tier process this run started and has not yet seen exit: killed
   on the way out if the run dies early. *)
let live_pids : int list ref = ref []

let kill_leftovers () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live_pids;
  live_pids := []

let () = at_exit kill_leftovers

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let gone pid =
  match Unix.kill pid 0 with () -> false | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true

let poll_interval = 0.0002

(* Start the tier and return once a [stats] round trip lists every worker
   alive; connection attempts and stats probes retry every 0.2 ms. *)
let spawn ~exe ~socket ~log ~cache ~workers =
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let args =
    [| exe; "serve"; "--socket"; socket; "--workers"; string_of_int workers; "--cache"; string_of_int cache |]
  in
  let pid = Unix.create_process exe args Unix.stdin out out in
  Unix.close out;
  live_pids := pid :: !live_pids;
  let deadline = Util.now () +. 20. in
  let check_alive () =
    if exited pid then begin
      live_pids := List.filter (( <> ) pid) !live_pids;
      fail "tier exited during start-up (see %s)" log
    end;
    if Util.now () > deadline then fail "tier not ready within 20 s (see %s)" log;
    Unix.sleepf poll_interval
  in
  let rec conn () =
    match connect socket with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
        check_alive ();
        conn ()
  in
  let control = conn () in
  let rec ready id =
    match ready_pids ~workers (call control ~id Protocol.Stats) with
    | Some pids -> pids
    | None ->
        check_alive ();
        ready (id + 1)
  in
  let pids = ready 1 in
  live_pids := pids @ !live_pids;
  { pid; socket; workers = pids; control }

let stats t = call t.control ~id:1 Protocol.Stats

(* Summed VmHWM of the supervisor and every worker. *)
let peak_rss_mb t = List.fold_left (fun acc pid -> acc +. Util.vm_hwm_mb pid) 0. (t.pid :: t.workers)

(* [shutdown], then wait for the supervisor to exit.  A process or socket
   file left behind is an error. *)
let shutdown t =
  ignore (call t.control ~id:2 Protocol.Shutdown : Json.t);
  close t.control;
  let deadline = Util.now () +. 10. in
  while not (exited t.pid) do
    if Util.now () > deadline then fail "supervisor %d did not exit after shutdown" t.pid;
    Unix.sleepf 0.001
  done;
  live_pids := List.filter (( <> ) t.pid) !live_pids;
  let rec workers_gone () =
    match List.filter (fun p -> not (gone p)) t.workers with
    | [] -> ()
    | left ->
        if Util.now () > deadline then
          fail "worker(s) %s outlived the supervisor" (String.concat "," (List.map string_of_int left));
        Unix.sleepf 0.001;
        workers_gone ()
  in
  workers_gone ();
  live_pids := List.filter (fun p -> not (List.mem p t.workers)) !live_pids;
  if Sys.file_exists t.socket then fail "socket %s left behind" t.socket

(* --- closed loop ------------------------------------------------------------- *)

type lconn = { c : conn; mutable slot : int; mutable sent_at : float; mutable busy : bool }

(* Two (or more) connections, each waiting for its reply before sending
   the next request.  Request [k] of the run is frame [k mod |frames|];
   [on_reply k slot body latency_s] sees every reply body.  Sends stop
   once [seconds] have elapsed; in-flight requests are then drained.
   Returns (requests sent, measured seconds). *)
let closed_loop ~conns ~(frames : string array) ~seconds ~on_reply =
  let lc = Array.map (fun c -> { c; slot = 0; sent_at = 0.; busy = false }) conns in
  let next = ref 0 in
  let p = Array.length frames in
  let t_start = Util.now () in
  let stop_at = t_start +. seconds in
  let send l =
    let k = !next in
    incr next;
    l.slot <- k;
    l.busy <- true;
    l.sent_at <- Util.now ();
    write_all l.c.fd frames.(k mod p)
  in
  Array.iter send lc;
  let busy = ref (Array.length lc) in
  let t_end = ref t_start in
  while !busy > 0 do
    let fds = Array.fold_left (fun acc l -> if l.busy then l.c.fd :: acc else acc) [] lc in
    let readable, _, _ = Unix.select fds [] [] (-1.) in
    Array.iter
      (fun l ->
        if l.busy && List.memq l.c.fd readable then
          match Unix.read l.c.fd l.c.buf 0 (Bytes.length l.c.buf) with
          | 0 -> fail "tier closed a client connection mid-run"
          | n -> (
              Protocol.feed l.c.dec l.c.buf n;
              match Protocol.next_frame l.c.dec with
              | Ok None -> ()
              | Error msg -> fail "reply framing: %s" msg
              | Ok (Some body) ->
                  let t1 = Util.now () in
                  t_end := t1;
                  l.busy <- false;
                  on_reply (l.slot mod p) body (t1 -. l.sent_at);
                  if t1 < stop_at then send l else decr busy))
      lc
  done;
  (!next, !t_end -. t_start)
