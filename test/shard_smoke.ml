(* @shard-smoke driver: worker-kill recovery must be deterministic, not
   merely likely.  Each run boots a fresh 2-worker sharded tier, drives
   a verified closed-loop mix through it (every reply byte-compared to
   the in-process twin), then injects the canonical fault — SIGSTOP a
   worker so a request is provably in flight, SIGKILL it — and requires
   the structured [worker_lost] reply, the respawn, the ledger re-warm
   and a byte-identical post-recovery answer.  The exit status is 0 only
   if every run recovers: 20/20, not 19/20.

   This executable stays single-domain on purpose: the supervisor runs
   in a forked child and its workers are forked grandchildren
   ({!Supervisor.fork_spawn}), which is only sound while no domain has
   ever been spawned here.  The emitted JSON (runs, recoveries, the last
   run's merged stats payload) is validated by the strict independent
   parser in the dune alias. *)

module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics
module Protocol = Vc_serve.Protocol
module Handler = Vc_serve.Handler
module Server = Vc_serve.Server
module Wire = Vc_serve.Wire
module Loadgen = Vc_serve.Loadgen
module Supervisor = Vc_serve.Supervisor
module Ring = Vc_serve.Ring
module Registry = Vc_check.Registry

let workers = 2
let cache_capacity = 4
let queue_depth = 16
let problem = "DegreeParity"
let size = 16

(* --- tiny client ------------------------------------------------------------- *)

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt
let ok = function Ok v -> v | Error msg -> raise (Failed msg)

(* One blocking round trip; the raw reply body. *)
let ask ch id query =
  Wire.send ch { Protocol.id; deadline_ms = None; query };
  ok (Wire.read_body ch)

let parse_reply body =
  match Result.bind (Json.parse body) Protocol.reply_of_json with
  | Ok r -> r
  | Error msg -> failf "unparseable reply %s: %s" body msg

let stats_payload body =
  match (parse_reply body).Protocol.body with
  | Ok payload -> payload
  | Error (c, m) -> failf "stats errored %s: %s" (Protocol.code_to_string c) m

let shard_row payload shard =
  match Json.member payload "shards" with
  | Some (Json.List rows) -> (
      match
        List.find_opt
          (fun row -> Option.bind (Json.member row "shard") Json.to_int = Some shard)
          rows
      with
      | Some row -> row
      | None -> failf "no stats row for shard %d" shard)
  | _ -> failf "stats payload lacks shards rows"

let row_int row key =
  match Option.bind (Json.member row key) Json.to_int with
  | Some v -> v
  | None -> failf "stats row lacks %s" key

let row_alive row =
  match Option.bind (Json.member row "alive") Json.to_bool with
  | Some b -> b
  | None -> failf "stats row lacks alive"

(* --- one run ------------------------------------------------------------------ *)

let seed_for ring shard =
  let rec go seed =
    if Ring.lookup_session ring ~problem ~size ~seed = shard then seed else go (Int64.add seed 1L)
  in
  go 1L

let expect_ok twin ~id q =
  match Handler.handle twin q with
  | Ok payload -> Json.to_string (Protocol.ok_reply ~id payload)
  | Error (_, msg) -> failf "twin handler failed: %s" msg

(* Fork a supervisor of [workers] shards over a fresh socket and hand [f]
   its address; the supervisor is killed and reaped afterwards (its
   workers see EOF on their channels and exit). *)
let with_tier ~workers ?snap_dir f =
  let dir = Filename.temp_file "vc_shard_smoke" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let listen = Server.listen_unix ~path in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          ignore
            (Supervisor.run ~workers ~cache_capacity ~queue_depth
               ~spawn:
                 (Supervisor.fork_spawn (fun () ->
                      Metrics.set_enabled true;
                      let store = Option.map (fun d -> Registry.store ~dir:d) snap_dir in
                      Handler.create ~cache_capacity ?store ()))
               ~listen ()
              : int);
          0
        with _ -> 1
      in
      Unix._exit code
  | pid ->
      Unix.close listen;
      let finally () =
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid : int * Unix.process_status)
         with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        try Unix.rmdir dir with Unix.Unix_error _ -> ()
      in
      Fun.protect ~finally (fun () -> f (Unix.ADDR_UNIX path))

let with_conn addr f =
  let ch = ok (Wire.connect addr) in
  Fun.protect ~finally:(fun () -> Wire.close ch) (fun () -> f ch)

(* Boot a tier, run the verified mix, kill-and-recover, shut down.
   Returns the final merged stats payload; raises [Failed] on any
   deviation. *)
let one_run ~run =
  with_tier ~workers (fun addr ->
      (* phase 1: deterministic verified mix over both shards; the seed
         varies per run so the 20 runs are 20 different loads *)
      let mix = [ ("probe", 5); ("solve", 1); ("warm", 2); ("stats", 1) ] in
      let cfg =
        {
          Loadgen.conns = Some 3;
          requests = 12;
          mix;
          seed = Int64.of_int (1000 + run);
          rate = None;
          deadline_ms = None;
          verify = true;
          shutdown = false;
          prewarm = false;
        }
      in
      (match Loadgen.run ~addr cfg with
      | Error msg -> failf "loadgen: %s" msg
      | Ok s ->
          if s.Loadgen.s_mismatches > 0 then
            failf "loadgen: %d byte mismatches" s.Loadgen.s_mismatches;
          if s.Loadgen.s_ok <> s.Loadgen.s_requests then
            failf "loadgen: %d/%d ok" s.Loadgen.s_ok s.Loadgen.s_requests);
      (* phase 2: the canonical fault, aimed at shard 0 *)
      with_conn addr (fun ch ->
          let twin = Handler.create () in
          let ring = Ring.create (List.init workers Fun.id) in
          let q = Protocol.Probe { problem; size; seed = seed_for ring 0; origin = 0 } in
          let q_fence = Protocol.Probe { problem; size; seed = seed_for ring 1; origin = 0 } in
          let check_identical ~what ~id ~query body =
            let want = expect_ok twin ~id query in
            if body <> want then failf "%s: reply differs from single-process bytes" what
          in
          check_identical ~what:"warm-up" ~id:1 ~query:q (ask ch 1 q);
          let pid0 =
            let r = shard_row (stats_payload (ask ch 2 Protocol.Stats)) 0 in
            if not (row_alive r) then failf "shard 0 dead before fault";
            row_int r "pid"
          in
          Unix.kill pid0 Sys.sigstop;
          Wire.send ch { Protocol.id = 3; deadline_ms = None; query = q };
          (* fence through the other shard: its reply proves the
             supervisor has already read (and routed) id 3, so the kill
             below provably lands on a worker holding a request — and
             proves shard 1 keeps serving while 0 is wedged *)
          check_identical ~what:"fence via live shard" ~id:4 ~query:q_fence (ask ch 4 q_fence);
          Unix.kill pid0 Sys.sigkill;
          (match (parse_reply (ok (Wire.read_body ch))).Protocol.body with
          | Error (Protocol.Worker_lost, _) -> ()
          | Error (c, m) -> failf "expected worker_lost, got %s: %s" (Protocol.code_to_string c) m
          | Ok _ -> failf "in-flight request answered by a dead worker");
          check_identical ~what:"post-recovery" ~id:5 ~query:q (ask ch 5 q);
          let final = stats_payload (ask ch 6 Protocol.Stats) in
          let r0 = shard_row final 0 and r1 = shard_row final 1 in
          if not (row_alive r0 && row_alive r1) then failf "a shard is down after recovery";
          if row_int r0 "respawns" <> 1 then
            failf "shard 0 respawns = %d, want 1" (row_int r0 "respawns");
          if row_int r1 "respawns" <> 0 then failf "shard 1 was disturbed";
          if row_int r0 "warm" < 1 then failf "shard 0 warm ledger lost";
          (match (parse_reply (ask ch 7 Protocol.Shutdown)).Protocol.body with
          | Ok _ -> ()
          | Error (c, m) -> failf "shutdown errored %s: %s" (Protocol.code_to_string c) m);
          final))

(* --- timed re-warm comparison -------------------------------------------------- *)

(* After SIGKILL, how long until the killed shard answers again?  Once
   cold (the ledger re-warm rebuilds the instance) and once against a
   snapshot store (the re-warm mmap-loads it).  At this size the cold
   build costs hundreds of milliseconds and the load a few, so the gap
   survives single-CPU scheduling noise; still, the numbers are
   report-only — the hard gates on the snapshot path live in the bench
   harness and @snap-smoke. *)

let rewarm_problem = "CycleColoring3"
let rewarm_size = (1 lsl 18) - 1

let timed_rewarm ?snap_dir () =
  with_tier ~workers:1 ?snap_dir (fun addr ->
      with_conn addr (fun ch ->
          let q = Protocol.Warm { problem = rewarm_problem; size = rewarm_size; seed = 1L } in
          (* first warm builds the session (and, with a store, publishes
             the snapshot it will re-load after the kill) *)
          (match (parse_reply (ask ch 1 q)).Protocol.body with
          | Ok _ -> ()
          | Error (c, m) -> failf "rewarm warm-up errored %s: %s" (Protocol.code_to_string c) m);
          let pid0 =
            let r = shard_row (stats_payload (ask ch 2 Protocol.Stats)) 0 in
            row_int r "pid"
          in
          Unix.kill pid0 Sys.sigkill;
          let t0 = Unix.gettimeofday () in
          (* retry through the worker_lost window; the first Ok reply
             marks the shard re-warmed and serving again *)
          let rec recovered id =
            match (parse_reply (ask ch id q)).Protocol.body with
            | Ok _ -> Unix.gettimeofday () -. t0
            | Error (Protocol.Worker_lost, _) -> recovered (id + 1)
            | Error (c, m) -> failf "rewarm probe errored %s: %s" (Protocol.code_to_string c) m
          in
          let elapsed = recovered 3 in
          (match (parse_reply (ask ch 99 Protocol.Shutdown)).Protocol.body with
          | Ok _ -> ()
          | Error (c, m) -> failf "shutdown errored %s: %s" (Protocol.code_to_string c) m);
          elapsed *. 1e9))

let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let finally () =
    (match Sys.readdir dir with
    | names ->
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          names
    | exception Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f dir)

(* --- driver ------------------------------------------------------------------- *)

let usage () =
  prerr_endline "usage: shard_smoke [--runs N] [--json PATH]";
  exit 2

let () =
  let runs = ref 20 and json_path = ref None in
  let rec parse = function
    | [] -> ()
    | "--runs" :: n :: rest ->
        (match int_of_string_opt n with Some v when v > 0 -> runs := v | _ -> usage ());
        parse rest
    | "--json" :: p :: rest ->
        json_path := Some p;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let recovered = ref 0 in
  let failures = ref [] in
  let last_stats = ref Json.Null in
  for run = 1 to !runs do
    match one_run ~run with
    | stats ->
        incr recovered;
        last_stats := stats
    | exception Failed msg -> failures := Printf.sprintf "run %d: %s" run msg :: !failures
    | exception e -> failures := Printf.sprintf "run %d: %s" run (Printexc.to_string e) :: !failures
  done;
  (* timed re-warm: rebuild vs snapshot-load after the same SIGKILL *)
  let rewarm =
    match
      let build_ns = timed_rewarm () in
      let snap_ns = with_tmp_dir "vc_shard_rewarm_store" (fun d -> timed_rewarm ~snap_dir:d ()) in
      (build_ns, snap_ns)
    with
    | build_ns, snap_ns ->
        Printf.printf
          "shard-smoke: re-warm after SIGKILL (%s n=%d): rebuild %.1f ms, snapshot %.1f ms \
           (%.1fx faster with the store)\n"
          rewarm_problem rewarm_size (build_ns /. 1e6) (snap_ns /. 1e6) (build_ns /. snap_ns);
        Some (build_ns, snap_ns)
    | exception Failed msg ->
        failures := Printf.sprintf "rewarm timing: %s" msg :: !failures;
        None
    | exception e ->
        failures := Printf.sprintf "rewarm timing: %s" (Printexc.to_string e) :: !failures;
        None
  in
  let ok = !recovered = !runs && rewarm <> None in
  let summary =
    Json.Obj
      [
        ("workers", Json.Int workers);
        ("runs", Json.Int !runs);
        ("recovered", Json.Int !recovered);
        ("ok", Json.Bool ok);
        ("failures", Json.List (List.rev_map (fun m -> Json.String m) !failures));
        ("rewarm",
         (match rewarm with
         | Some (build_ns, snap_ns) ->
             Json.Obj
               [
                 ("problem", Json.String rewarm_problem);
                 ("size", Json.Int rewarm_size);
                 ("rebuild_ns", Json.Float build_ns);
                 ("snapshot_ns", Json.Float snap_ns);
                 ("speedup", Json.Float (build_ns /. snap_ns));
               ]
         | None -> Json.Null));
        ("last_run_stats", !last_stats);
      ]
  in
  (match !json_path with
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string summary);
      output_char oc '\n';
      close_out oc
  | None -> ());
  Printf.printf "shard-smoke: %d/%d runs recovered (%d workers)\n" !recovered !runs workers;
  List.iter prerr_endline (List.rev !failures);
  exit (if ok then 0 else 1)
