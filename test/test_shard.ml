(* Tests for the sharded serving tier: qcheck properties of the
   consistent-hash ring (total coverage, removal stability, determinism
   pinned to the FNV-1a reference vectors), decoder fuzzing (torn
   frames, garbage, truncated length prefixes — the decoder must never
   raise), and fault injection against a real supervisor: SIGSTOP a
   worker so a request is provably in flight, SIGKILL it, and assert
   the structured [worker_lost] reply, the automatic respawn, the
   session re-warm and byte-identical post-recovery answers while the
   other shard keeps serving.

   Ordering constraint: this module forks — the supervisor runs in a
   forked child and its workers are forked grandchildren
   ({!Supervisor.fork_spawn}) — so its suites must run before any suite
   that spawns a domain (Test_measure, Test_exec, Test_serve, ...);
   fork is only safe while the test process is still single-domain. *)

module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics
module Registry = Vc_check.Registry
module Protocol = Vc_serve.Protocol
module Handler = Vc_serve.Handler
module Server = Vc_serve.Server
module Wire = Vc_serve.Wire
module Shard = Vc_serve.Shard
module Supervisor = Vc_serve.Supervisor
module Ring = Vc_serve.Ring

(* --- hash ring --------------------------------------------------------------- *)

(* Cross-process determinism, pinned: the ring must compute FNV-1a 64
   (never Hashtbl.hash, which is unspecified across versions), so the
   reference test vectors are hard facts any other process — a client in
   another language, a future compiler — will reproduce. *)
let test_ring_hash_vectors () =
  let check name expect s =
    Alcotest.(check int64) name expect (Ring.hash64 s)
  in
  check "fnv1a64 offset basis" 0xcbf29ce484222325L "";
  check "fnv1a64 of 'a'" 0xaf63dc4c8601ec8cL "a";
  check "fnv1a64 of 'foobar'" 0x85944171f73967e8L "foobar"

let test_ring_basics () =
  (match Ring.create [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty ring accepted");
  (match Ring.create ~vnodes:0 [ 0 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "vnodes 0 accepted");
  let r = Ring.create [ 2; 0; 1; 1 ] in
  Alcotest.(check (list int)) "shards sorted, deduplicated" [ 0; 1; 2 ] (Ring.shards r);
  (match Ring.remove (Ring.create [ 0 ]) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "removed the last shard");
  (* the session key folds case exactly like the registry's lookup *)
  let s = Ring.create [ 0; 1; 2; 3 ] in
  Alcotest.(check int) "session key is case-insensitive"
    (Ring.lookup_session s ~problem:"DegreeParity" ~size:16 ~seed:7L)
    (Ring.lookup_session s ~problem:"degreeparity" ~size:16 ~seed:7L)

let key_gen = QCheck.Gen.(string_size ~gen:printable (int_bound 48))

let ring_arb =
  QCheck.make
    ~print:(fun (workers, keys) ->
      Printf.sprintf "workers %d; keys [%s]" workers
        (String.concat "; " (List.map String.escaped keys)))
    QCheck.Gen.(pair (int_range 1 8) (list_size (int_range 1 40) key_gen))

let qcheck_ring_total =
  QCheck.Test.make ~count:200 ~name:"Ring: every key maps to a live shard" ring_arb
    (fun (workers, keys) ->
      let r = Ring.create (List.init workers Fun.id) in
      List.for_all (fun k -> let s = Ring.lookup r k in s >= 0 && s < workers) keys)

let qcheck_ring_deterministic =
  QCheck.Test.make ~count:200 ~name:"Ring: independently built rings agree" ring_arb
    (fun (workers, keys) ->
      (* shard-id order must not matter either *)
      let a = Ring.create (List.init workers Fun.id) in
      let b = Ring.create (List.rev (List.init workers Fun.id)) in
      List.for_all (fun k -> Ring.lookup a k = Ring.lookup b k) keys)

let qcheck_ring_stable =
  QCheck.Test.make ~count:200
    ~name:"Ring: removing one shard only remaps that shard's keys"
    (QCheck.make
       ~print:(fun ((workers, victim), keys) ->
         Printf.sprintf "workers %d victim %d; %d keys" workers victim (List.length keys))
       QCheck.Gen.(
         pair
           (int_range 2 8 >>= fun w -> map (fun v -> (w, v)) (int_bound (w - 1)))
           (list_size (int_range 1 40) key_gen)))
    (fun ((workers, victim), keys) ->
      let before = Ring.create (List.init workers Fun.id) in
      let after = Ring.remove before victim in
      List.for_all
        (fun k ->
          let s = Ring.lookup before k in
          if s = victim then Ring.lookup after k <> victim else Ring.lookup after k = s)
        keys)

(* --- decoder fuzz ------------------------------------------------------------ *)

let feed_string dec s = Protocol.feed dec (Bytes.of_string s) (String.length s)

(* Drain everything available; Error is a legal terminal outcome,
   an exception never is. *)
let drain_all dec =
  let rec go acc =
    match Protocol.next_frame dec with
    | Ok (Some b) -> go (b :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error e -> Error e
  in
  go []

let body_gen = QCheck.Gen.(string_size ~gen:(char_range '\000' '\255') (int_bound 200))

let qcheck_fuzz_chunked =
  QCheck.Test.make ~count:300
    ~name:"Protocol: torn frames reassemble identically at any split"
    (QCheck.make
       ~print:(fun (bodies, cuts) ->
         Printf.sprintf "%d bodies, cuts [%s]" (List.length bodies)
           (String.concat ";" (List.map string_of_int cuts)))
       QCheck.Gen.(
         pair (list_size (int_range 1 6) body_gen) (list_size (int_bound 30) (int_range 1 50))))
    (fun (bodies, cuts) ->
      let wire = String.concat "" (List.map Protocol.frame bodies) in
      let dec = Protocol.decoder () in
      let got = ref [] in
      let off = ref 0 in
      let cuts = ref (cuts @ [ String.length wire ]) in
      while !off < String.length wire do
        let step =
          match !cuts with
          | c :: rest ->
              cuts := rest;
              min c (String.length wire - !off)
          | [] -> String.length wire - !off
        in
        feed_string dec (String.sub wire !off step);
        off := !off + step;
        match drain_all dec with
        | Ok bs -> got := !got @ bs
        | Error e -> QCheck.Test.fail_reportf "framing error on valid stream: %s" e
      done;
      !got = bodies)

let qcheck_fuzz_truncated =
  QCheck.Test.make ~count:300
    ~name:"Protocol: a truncated frame is incomplete, never an error"
    (QCheck.make
       ~print:(fun (body, cut) -> Printf.sprintf "%S cut at %d" body cut)
       QCheck.Gen.(pair body_gen (int_bound 1000)))
    (fun (body, cut) ->
      let frame = Protocol.frame body in
      (* every strict prefix — including mid-length-prefix cuts like
         "12" of "123 ..." — must leave the decoder waiting for more *)
      let cut = cut mod String.length frame in
      let dec = Protocol.decoder () in
      feed_string dec (String.sub frame 0 cut);
      match drain_all dec with
      | Ok [] -> true
      | Ok bs -> QCheck.Test.fail_reportf "prefix produced %d frame(s)" (List.length bs)
      | Error e -> QCheck.Test.fail_reportf "prefix rejected: %s" e)

let qcheck_fuzz_garbage =
  QCheck.Test.make ~count:500 ~name:"Protocol: random bytes never raise"
    (QCheck.make
       ~print:(fun chunks -> Printf.sprintf "%d chunks" (List.length chunks))
       QCheck.Gen.(list_size (int_bound 8) body_gen))
    (fun chunks ->
      let dec = Protocol.decoder () in
      (* any outcome but an exception is fine; once the stream errors the
         connection would be dropped, so stop feeding *)
      (try
         List.iter
           (fun chunk ->
             feed_string dec chunk;
             match drain_all dec with Ok _ -> () | Error _ -> raise Exit)
           chunks
       with Exit -> ());
      true)

(* --- fault injection ---------------------------------------------------------- *)

(* A serving loop blocks, so it runs in a forked child (a supervisor's
   workers are its forked grandchildren); the test drives it as a client
   over a Unix-domain socket and gets the socket path.  The listening
   socket is bound before the fork, so the backlog accepts our connect
   even before the child enters its select loop — no retry dance. *)
let with_tier serve f =
  let dir = Filename.temp_file "vc_shard" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let listen = Server.listen_unix ~path in
  match Unix.fork () with
  | 0 ->
      let code =
        try
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          serve listen;
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
      Fun.protect ~finally (fun () -> f path)

let with_conn path f =
  let c =
    match Wire.connect (Unix.ADDR_UNIX path) with Ok c -> c | Error msg -> Alcotest.fail msg
  in
  Fun.protect ~finally:(fun () -> Wire.close c) (fun () -> f c)

let with_supervisor ?(workers = 2) ?(cache_capacity = 4) ?(queue_depth = 8) ?snap_dir f =
  with_tier
    (fun listen ->
      (* with a snapshot store the test reads the supervisor's own
         rewarm_snap/rewarm_build counters, so metering must be on in
         this process too, not just in the workers *)
      if snap_dir <> None then Metrics.set_enabled true;
      ignore
        (Supervisor.run ~workers ~cache_capacity ~queue_depth
           ~spawn:
             (Supervisor.fork_spawn (fun () ->
                  Metrics.set_enabled true;
                  let store = Option.map (fun d -> Registry.store ~dir:d) snap_dir in
                  Handler.create ~cache_capacity ?store ()))
           ~listen ()
          : int))
    (fun path -> with_conn path f)

let send_raw c s = Alcotest.(check bool) "frames written" true (Wire.write c s)
let send_request = Wire.send

(* Raw frame bodies, not parsed replies: the whole point of the sharded
   tier is byte-identity, so the assertions compare wire bytes. *)
let read_body c = match Wire.read_body c with Ok body -> body | Error msg -> Alcotest.fail msg
let read_bodies c count = List.init count (fun _ -> read_body c)

(* The peer must close the connection: nothing more is buffered and the
   next read sees EOF within 5 s, never more bytes or a hang. *)
let expect_eof c =
  if Protocol.next_frame c.Wire.dec <> Ok None then Alcotest.fail "bytes after a bad-frame reply";
  match Unix.select [ c.Wire.fd ] [] [] 5.0 with
  | [], _, _ -> Alcotest.fail "connection still open after a bad-frame reply"
  | _ -> if Wire.read c = Wire.Data then Alcotest.fail "bytes after a bad-frame reply"

let parse_reply body =
  match Result.bind (Json.parse body) Protocol.reply_of_json with
  | Ok r -> r
  | Error msg -> Alcotest.failf "unparseable reply %s: %s" body msg

(* One stats row per shard: (shard, pid, alive, respawns, warm, worker stats). *)
let shard_rows body =
  match (parse_reply body).Protocol.body with
  | Error (c, m) -> Alcotest.failf "stats errored %s: %s" (Protocol.code_to_string c) m
  | Ok payload -> (
      match Json.member payload "shards" with
      | Some (Json.List rows) ->
          List.map
            (fun row ->
              let int k = Option.bind (Json.member row k) Json.to_int in
              let get k = match int k with Some v -> v | None -> Alcotest.failf "stats row lacks %s" k in
              let alive =
                match Option.bind (Json.member row "alive") Json.to_bool with
                | Some b -> b
                | None -> Alcotest.fail "stats row lacks alive"
              in
              (get "shard", get "pid", alive, get "respawns", get "warm", Json.member row "stats"))
            rows
      | _ -> Alcotest.fail "stats payload lacks shards rows")

let row rows shard =
  match List.find_opt (fun (s, _, _, _, _, _) -> s = shard) rows with
  | Some r -> r
  | None -> Alcotest.failf "no stats row for shard %d" shard

(* A named counter out of a stats payload's metrics block (0 if absent):
   used for the workers' embedded stats and the supervisor's own. *)
let counter_of payload name =
  Option.value ~default:0
    (Option.bind
       (Option.bind
          (Option.bind (Json.member payload "metrics") (fun m -> Json.member m "counters"))
          (fun c -> Json.member c name))
       Json.to_int)

(* The worker's own serve.requests.warm counter, from its embedded stats
   payload — proof the respawned child actually replayed the ledger. *)
let warm_requests_of worker_stats =
  match worker_stats with
  | Some stats -> counter_of stats "serve.requests.warm"
  | None -> 0

let stats_payload body =
  match (parse_reply body).Protocol.body with
  | Ok payload -> payload
  | Error (c, m) -> Alcotest.failf "stats errored %s: %s" (Protocol.code_to_string c) m

let problem = "DegreeParity"
let size = 16

(* The test computes placement with the same ring the supervisor builds,
   so it can aim requests at a chosen shard by searching seeds. *)
let seed_for ring shard =
  let rec go seed =
    if Ring.lookup_session ring ~problem ~size ~seed = shard then seed else go (Int64.add seed 1L)
  in
  go 1L

let expect_ok ~id q =
  let twin = Handler.create () in
  match Handler.handle twin q with
  | Ok payload -> Json.to_string (Protocol.ok_reply ~id payload)
  | Error (_, msg) -> Alcotest.failf "twin handler failed: %s" msg

let test_worker_kill_recovery () =
  with_supervisor ~workers:2 (fun c ->
      let ring = Ring.create [ 0; 1 ] in
      let seed_a = seed_for ring 0 and seed_b = seed_for ring 1 in
      let q_a = Protocol.Probe { problem; size; seed = seed_a; origin = 0 } in
      let q_b = Protocol.Probe { problem; size; seed = seed_b; origin = 0 } in
      let ask id query =
        send_request c { Protocol.id; deadline_ms = None; query };
        read_body c
      in
      (* warm one session per shard; replies are byte-identical to a
         single-process server's *)
      Alcotest.(check string) "shard 0 answer" (expect_ok ~id:1 q_a) (ask 1 q_a);
      Alcotest.(check string) "shard 1 answer" (expect_ok ~id:2 q_b) (ask 2 q_b);
      let rows = shard_rows (ask 3 Protocol.Stats) in
      Alcotest.(check int) "two shards" 2 (List.length rows);
      let pid_a = match row rows 0 with _, pid, true, 0, 1, _ -> pid | _ ->
        Alcotest.fail "shard 0 not (alive, 0 respawns, 1 warm)"
      in
      (match row rows 1 with _, _, true, 0, 1, _ -> () | _ ->
        Alcotest.fail "shard 1 not (alive, 0 respawns, 1 warm)");
      (* stop the worker so the next request is provably in flight, then
         kill it: the supervisor must fail the in-flight request with
         worker_lost — deterministically, every run *)
      Unix.kill pid_a Sys.sigstop;
      send_request c { Protocol.id = 4; deadline_ms = None; query = q_a };
      send_request c { Protocol.id = 5; deadline_ms = None; query = q_b };
      (* the other shard answers while shard 0 is wedged *)
      Alcotest.(check string) "shard 1 undisturbed" (expect_ok ~id:5 q_b) (read_body c);
      Unix.kill pid_a Sys.sigkill;
      (match (parse_reply (read_body c)).Protocol.body with
      | Error (Protocol.Worker_lost, _) -> ()
      | Error (c, m) ->
          Alcotest.failf "in-flight request: expected worker_lost, got %s: %s"
            (Protocol.code_to_string c) m
      | Ok _ -> Alcotest.fail "in-flight request answered by a dead worker");
      (* the respawned worker serves the same session, same bytes *)
      Alcotest.(check string) "post-recovery answer" (expect_ok ~id:6 q_a) (ask 6 q_a);
      let rows = shard_rows (ask 7 Protocol.Stats) in
      (match row rows 0 with
      | _, pid, true, 1, 1, stats ->
          if pid = pid_a then Alcotest.fail "shard 0 pid unchanged after respawn";
          if warm_requests_of stats < 1 then
            Alcotest.fail "respawned worker was not re-warmed from the ledger"
      | _ -> Alcotest.fail "shard 0 not (alive, 1 respawn, 1 warm) after recovery");
      (match row rows 1 with
      | _, _, true, 0, 1, _ -> ()
      | _ -> Alcotest.fail "shard 1 disturbed by shard 0's death");
      match (parse_reply (ask 8 Protocol.Shutdown)).Protocol.body with
      | Ok _ -> ()
      | Error (c, m) -> Alcotest.failf "shutdown errored %s: %s" (Protocol.code_to_string c) m)

(* With a snapshot store configured, the post-kill re-warm must take the
   mmap-load path, not rebuild: the first build published the instance,
   so the respawned worker's ledger replay is a store hit.  Asserted
   from both ends — the worker's serve.snap.hits counter and the
   supervisor's rewarm_snap/rewarm_build split — plus byte-identity of
   the post-recovery answer against a snapshot-free twin. *)
let test_snap_rewarm () =
  let snap_dir = Filename.temp_file "vc_shard_snap" "" in
  Sys.remove snap_dir;
  let finally () =
    let store = Registry.store ~dir:snap_dir in
    List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (Registry.Store.files store);
    try Unix.rmdir snap_dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  with_supervisor ~workers:2 ~snap_dir (fun c ->
      let ring = Ring.create [ 0; 1 ] in
      let seed_a = seed_for ring 0 and seed_b = seed_for ring 1 in
      let q_a = Protocol.Probe { problem; size; seed = seed_a; origin = 0 } in
      let q_b = Protocol.Probe { problem; size; seed = seed_b; origin = 0 } in
      let ask id query =
        send_request c { Protocol.id; deadline_ms = None; query };
        read_body c
      in
      (* first contact builds the instance and publishes the snapshot *)
      Alcotest.(check string) "warm-up answer" (expect_ok ~id:1 q_a) (ask 1 q_a);
      let pid_a =
        match row (shard_rows (ask 2 Protocol.Stats)) 0 with
        | _, pid, true, 0, 1, _ -> pid
        | _ -> Alcotest.fail "shard 0 not (alive, 0 respawns, 1 warm)"
      in
      Alcotest.(check bool) "snapshot published" true
        (Registry.Store.files (Registry.store ~dir:snap_dir) <> []);
      (* kill mid-flight, exactly like the recovery test: shard 1's reply
         proves the supervisor forwarded the stopped shard's request
         before the kill lands *)
      Unix.kill pid_a Sys.sigstop;
      send_request c { Protocol.id = 3; deadline_ms = None; query = q_a };
      send_request c { Protocol.id = 30; deadline_ms = None; query = q_b };
      Alcotest.(check string) "shard 1 undisturbed" (expect_ok ~id:30 q_b) (read_body c);
      Unix.kill pid_a Sys.sigkill;
      (match (parse_reply (read_body c)).Protocol.body with
      | Error (Protocol.Worker_lost, _) -> ()
      | Error (c, m) ->
          Alcotest.failf "expected worker_lost, got %s: %s" (Protocol.code_to_string c) m
      | Ok _ -> Alcotest.fail "in-flight request answered by a dead worker");
      (* the respawned worker re-warmed from the store, same bytes *)
      Alcotest.(check string) "post-recovery answer" (expect_ok ~id:4 q_a) (ask 4 q_a);
      let stats = stats_payload (ask 5 Protocol.Stats) in
      (match row (shard_rows (ask 6 Protocol.Stats)) 0 with
      | _, _, true, 1, 1, worker_stats -> (
          match worker_stats with
          | Some w ->
              if counter_of w "serve.snap.hits" < 1 then
                Alcotest.fail "respawned worker re-warmed without a snapshot hit"
          | None -> Alcotest.fail "shard 0 row lacks worker stats")
      | _ -> Alcotest.fail "shard 0 not (alive, 1 respawn, 1 warm) after recovery");
      if counter_of stats "serve.shard.rewarm_snap" < 1 then
        Alcotest.fail "supervisor counted no snapshot re-warm";
      Alcotest.(check int) "no rebuild re-warm" 0 (counter_of stats "serve.shard.rewarm_build");
      ignore (ask 7 Protocol.Shutdown : string))

(* Admission control composes with supervision: a wedged worker's queue
   fills to queue_depth, later arrivals shed with overloaded (never a
   hang), and the eventual kill fails exactly the admitted ones. *)
let test_wedged_shard_sheds () =
  with_supervisor ~workers:2 ~queue_depth:2 (fun c ->
      let ring = Ring.create [ 0; 1 ] in
      let seed_a = seed_for ring 0 in
      let q_a = Protocol.Probe { problem; size; seed = seed_a; origin = 0 } in
      let ask id query =
        send_request c { Protocol.id; deadline_ms = None; query };
        read_body c
      in
      Alcotest.(check string) "warm-up answer" (expect_ok ~id:1 q_a) (ask 1 q_a);
      let pid_a =
        match row (shard_rows (ask 2 Protocol.Stats)) 0 with
        | _, pid, true, _, _, _ -> pid
        | _ -> Alcotest.fail "shard 0 not alive"
      in
      Unix.kill pid_a Sys.sigstop;
      (* depth 2: ids 3,4 admitted (in flight), 5 must shed immediately *)
      List.iter (fun id -> send_request c { Protocol.id = id; deadline_ms = None; query = q_a }) [ 3; 4; 5 ];
      (match (parse_reply (read_body c)).Protocol.body with
      | Error (Protocol.Overloaded, _) -> ()
      | Error (c, m) -> Alcotest.failf "expected overloaded, got %s: %s" (Protocol.code_to_string c) m
      | Ok _ -> Alcotest.fail "over-depth request not shed");
      Unix.kill pid_a Sys.sigkill;
      List.iter
        (fun body ->
          match (parse_reply body).Protocol.body with
          | Error (Protocol.Worker_lost, _) -> ()
          | Error (c, m) -> Alcotest.failf "expected worker_lost, got %s: %s" (Protocol.code_to_string c) m
          | Ok _ -> Alcotest.fail "admitted request answered by a dead worker")
        (read_bodies c 2);
      (* recovery: same session, same bytes, fresh worker *)
      Alcotest.(check string) "post-shed recovery" (expect_ok ~id:6 q_a) (ask 6 q_a);
      ignore (ask 7 Protocol.Shutdown : string))

(* --- hostile ingress ----------------------------------------------------------- *)

(* Ingress rejection (bad framing, bad JSON, an invalid request) happens
   before any routing, so a sharded tier must answer a hostile client
   with exactly the bytes a single-process server sends.  One connection
   per case: the raw bytes, written at once; the replies they draw; and
   whether the server must then close the connection. *)
let hostile_cases =
  [
    ("abc 2\n{}\n", 1, true);
    (Printf.sprintf "%d {}\n" (Protocol.max_frame_bytes + 1), 1, true);
    ( String.concat ""
        (List.map Protocol.frame
           [
             "{nope";
             {|{"id":7,"kind":"frobnicate"}|};
             {|{"id":-3,"kind":"frobnicate"}|};
             {|{"kind":"frobnicate"}|};
           ]),
      4,
      false );
  ]

(* Each tier runs in a forked child: this module must stay single-domain
   (see the ordering constraint at the top). *)
let hostile_replies serve =
  with_tier serve (fun path ->
      let replies =
        List.map
          (fun (bytes, count, closes) ->
            with_conn path (fun c ->
                send_raw c bytes;
                let bodies = read_bodies c count in
                if closes then expect_eof c;
                bodies))
          hostile_cases
      in
      with_conn path (fun c ->
          send_request c { Protocol.id = 1; deadline_ms = None; query = Protocol.Shutdown };
          ignore (read_body c : string));
      List.concat replies)

let test_hostile_ingress_bytes () =
  let single =
    hostile_replies (fun listen ->
        ignore (Server.run ~handler:(Handler.create ()) ~listen () : int))
  in
  let sharded =
    hostile_replies (fun listen ->
        ignore
          (Supervisor.run ~workers:2 ~spawn:(Supervisor.fork_spawn Handler.create) ~listen ()
            : int))
  in
  Alcotest.(check (list string)) "sharded ingress replies are single-process bytes" single sharded;
  List.iter2
    (fun want body ->
      match parse_reply body with
      | { Protocol.r_id; body = Error (Protocol.Bad_request, _) } ->
          Alcotest.(check int) ("reply id of " ^ body) want r_id
      | _ -> Alcotest.failf "expected a bad_request reply, got %s" body)
    [ 0; 0; 0; 7; 0; 0 ] single

let suites =
  [
    ( "shard:ring",
      [
        Alcotest.test_case "FNV-1a reference vectors" `Quick test_ring_hash_vectors;
        Alcotest.test_case "construction and case folding" `Quick test_ring_basics;
        QCheck_alcotest.to_alcotest qcheck_ring_total;
        QCheck_alcotest.to_alcotest qcheck_ring_deterministic;
        QCheck_alcotest.to_alcotest qcheck_ring_stable;
      ] );
    ( "shard:decoder-fuzz",
      [
        QCheck_alcotest.to_alcotest qcheck_fuzz_chunked;
        QCheck_alcotest.to_alcotest qcheck_fuzz_truncated;
        QCheck_alcotest.to_alcotest qcheck_fuzz_garbage;
      ] );
    ( "shard:fault-injection",
      [
        Alcotest.test_case "kill mid-flight: lost, respawn, re-warm" `Quick
          test_worker_kill_recovery;
        Alcotest.test_case "re-warm loads the snapshot, not a rebuild" `Quick
          test_snap_rewarm;
        Alcotest.test_case "wedged shard sheds, others serve" `Quick test_wedged_shard_sheds;
        Alcotest.test_case "hostile ingress: sharded bytes = single-process" `Quick
          test_hostile_ingress_bytes;
      ] );
  ]
