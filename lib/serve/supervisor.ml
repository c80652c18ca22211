module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics
module Registry = Vc_check.Registry

(* --- supervisor metrics ------------------------------------------------------- *)

let routed_c = Metrics.counter "serve.shard.routed"
let shed_c = Metrics.counter "serve.shard.shed"
let lost_c = Metrics.counter "serve.shard.worker_lost"
let deaths_c = Metrics.counter "serve.shard.deaths"
let respawns_c = Metrics.counter "serve.shard.respawns"
let rewarmed_c = Metrics.counter "serve.shard.rewarmed"

(* Split of completed re-warm replies by where the fresh worker got the
   instance from: a snapshot-store mmap load vs. a scratch rebuild. *)
let rewarm_snap_c = Metrics.counter "serve.shard.rewarm_snap"
let rewarm_build_c = Metrics.counter "serve.shard.rewarm_build"
let peak_inflight_c = Metrics.counter "serve.shard.peak_inflight"

(* --- worker spawns ------------------------------------------------------------ *)

let fork_spawn make_handler ~shard:_ ~fd ~close_fds =
  match Unix.fork () with
  | 0 ->
      List.iter (fun f -> try Unix.close f with Unix.Unix_error _ -> ()) close_fds;
      let code =
        try
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          ignore (Server.run_conn ~handler:(make_handler ()) ~fd () : int);
          0
        with _ -> 1
      in
      (* a forked worker must never run the parent's at_exit handlers *)
      Unix._exit code
  | pid -> pid

let exec_spawn ?(jobs = 1) ?snap_dir ~cache ~queue_depth exe ~shard:_ ~fd ~close_fds:_ =
  let args =
    Array.of_list
      ([
         exe; "serve"; "--worker";
         "--cache"; string_of_int cache;
         "--queue-depth"; string_of_int queue_depth;
         "-j"; string_of_int jobs;
       ]
      @ match snap_dir with None -> [] | Some d -> [ "--snap-dir"; d ])
  in
  (* the socketpair end becomes the worker's stdin; sockets are
     bidirectional, so replies come back on the same descriptor *)
  Unix.create_process exe args fd Unix.stdout Unix.stderr

(* --- routes ------------------------------------------------------------------- *)

(* A [stats] request fans out to every live worker and the parts are
   merged; [g_remaining] counts outstanding parts (worker death
   decrements it so a gather can never hang). *)
type gather = {
  g_conn : Wire.t;
  g_client_id : int;
  g_arrival : float;
  mutable g_remaining : int;
  mutable g_parts : (int * Json.t) list;
}

type route =
  | Client of { conn : Wire.t; client_id : int; kind : string; arrival : float; shard : int }
  | Part of { gather : gather; shard : int }
  | Internal of { shard : int }

let route_shard = function
  | Client { shard; _ } | Part { shard; _ } | Internal { shard } -> shard

(* --- reply id splicing -------------------------------------------------------- *)

(* Worker replies are our own [ok_reply]/[error_reply] encodings, whose
   first member is always ["id"].  Rewriting the internal id back to the
   client's by splicing the digit run keeps every other byte of the
   reply untouched — the byte-identity contract of oracle probe [shard] rests on the
   supervisor never re-encoding a payload. *)
let id_prefix = "{\"id\":"

let split_reply body =
  let pl = String.length id_prefix in
  let n = String.length body in
  if n < pl || String.sub body 0 pl <> id_prefix then None
  else begin
    let i = ref pl in
    while !i < n && (match body.[!i] with '0' .. '9' -> true | _ -> false) do
      incr i
    done;
    if !i = pl then None
    else
      match int_of_string_opt (String.sub body pl (!i - pl)) with
      | None -> None
      | Some id -> Some (id, String.sub body !i (n - !i))
  end

(* --- the loop ----------------------------------------------------------------- *)

let run ~workers ?(cache_capacity = 8) ?(queue_depth = 64) ?(vnodes = Ring.default_vnodes)
    ~spawn ~listen () =
  if workers < 1 then invalid_arg "Supervisor.run: workers must be >= 1";
  if queue_depth < 1 then invalid_arg "Supervisor.run: queue_depth must be >= 1";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_close_on_exec listen;
  let entries = Registry.all () in
  let ring = Ring.create ~vnodes (List.init workers Fun.id) in
  let conns = ref [] in
  let answered = ref 0 in
  let stopping = ref false in
  let next_internal = ref 0 in
  let routes : (int, route) Hashtbl.t = Hashtbl.create 64 in
  (* each fork-spawned worker closes the listener and its elder
     siblings' channels; later descriptors are created after it exists *)
  let shard_list = ref [] in
  for i = 0 to workers - 1 do
    let close_fds = listen :: List.map (fun s -> s.Shard.ch.Wire.fd) !shard_list in
    shard_list := !shard_list @ [ Shard.create ~spawn ~warm_capacity:cache_capacity ~close_fds i ]
  done;
  let shards = Array.of_list !shard_list in
  let close_fds_for () =
    (listen :: List.filter_map (fun c -> if c.Wire.alive then Some c.Wire.fd else None) !conns)
    @ List.filter_map
        (fun s -> if s.Shard.ch.Wire.alive then Some s.Shard.ch.Wire.fd else None)
        (Array.to_list shards)
  in
  let lat_us arrival = int_of_float (Float.max 0. ((Unix.gettimeofday () -. arrival) *. 1e6)) in
  let reply_raw c body =
    ignore (Wire.write c (Protocol.frame body) : bool);
    incr answered
  in
  let reply c json = reply_raw c (Json.to_string json) in
  let reply_error c ~id ~code ~message =
    Handler.note_error code;
    reply c (Protocol.error_reply ~id ~code ~message)
  in
  let fresh_id () =
    let id = !next_internal in
    next_internal := id + 1;
    id
  in
  (* merged stats payload: summed cache occupancy, the supervisor's own
     metrics (the serve.shard.* counters live here), and a per-shard
     breakdown whose pids let a harness aim signals at live workers *)
  let finish_gather g =
    let part_int part outer inner =
      match Option.bind (Json.member part outer) (fun o -> Json.member o inner) with
      | Some v -> Option.value (Json.to_int v) ~default:0
      | None -> 0
    in
    let sum f = List.fold_left (fun acc (_, p) -> acc + f p) 0 g.g_parts in
    let rows =
      Array.to_list
        (Array.map
           (fun s ->
             Json.Obj
               [
                 ("shard", Json.Int s.Shard.id);
                 ("pid", Json.Int s.Shard.pid);
                 ("alive", Json.Bool s.Shard.ch.Wire.alive);
                 ("inflight", Json.Int s.Shard.inflight);
                 ("respawns", Json.Int s.Shard.respawns);
                 ("warm", Json.Int (Shard.warm_count s));
                 ( "stats",
                   match List.assoc_opt s.Shard.id g.g_parts with
                   | Some p -> p
                   | None -> Json.Null );
               ])
           shards)
    in
    let payload =
      Json.Obj
        [
          ( "cache",
            Json.Obj
              [
                ("size", Json.Int (sum (fun p -> part_int p "cache" "size")));
                ("capacity", Json.Int (sum (fun p -> part_int p "cache" "capacity")));
              ] );
          ("metrics", Metrics.to_json ());
          ("workers", Json.Int workers);
          ("shards", Json.List rows);
        ]
    in
    reply g.g_conn (Protocol.ok_reply ~id:g.g_client_id payload);
    Handler.observe_latency ~kind:"stats" (lat_us g.g_arrival)
  in
  let fail_shard_routes shard =
    let victims =
      Hashtbl.fold
        (fun id r acc -> if route_shard r = shard.Shard.id then (id, r) :: acc else acc)
        routes []
    in
    List.iter
      (fun (id, r) ->
        Hashtbl.remove routes id;
        match r with
        | Client { conn; client_id; kind; arrival; _ } ->
            Metrics.incr lost_c;
            reply_error conn ~id:client_id ~code:Protocol.Worker_lost
              ~message:
                (Printf.sprintf "shard %d worker died with the request in flight"
                   shard.Shard.id);
            Handler.observe_latency ~kind (lat_us arrival)
        | Part { gather; _ } ->
            gather.g_remaining <- gather.g_remaining - 1;
            if gather.g_remaining <= 0 then finish_gather gather
        | Internal _ -> ())
      victims
  in
  (* respawn + re-warm; if the fresh worker dies mid-re-warm it stays
     down (no respawn storm) and is revived lazily by the next request
     routed to it *)
  let revive shard =
    Shard.respawn ~spawn ~close_fds:(close_fds_for ()) shard;
    Metrics.incr respawns_c;
    List.iter
      (fun q ->
        if shard.Shard.ch.Wire.alive then begin
          let id = fresh_id () in
          Hashtbl.replace routes id (Internal { shard = shard.Shard.id });
          shard.Shard.inflight <- shard.Shard.inflight + 1;
          Wire.send shard.Shard.ch { Protocol.id; deadline_ms = None; query = q };
          if shard.Shard.ch.Wire.alive then Metrics.incr rewarmed_c
        end)
      (Shard.warm_queries shard);
    if not shard.Shard.ch.Wire.alive then begin
      Metrics.incr deaths_c;
      Shard.reap shard;
      fail_shard_routes shard
    end
  in
  let on_death shard =
    Wire.close shard.Shard.ch;
    Metrics.incr deaths_c;
    Shard.reap shard;
    fail_shard_routes shard;
    if not !stopping then revive shard
  in
  let forward shard route ?deadline_ms query =
    let id = fresh_id () in
    Hashtbl.replace routes id route;
    shard.Shard.inflight <- shard.Shard.inflight + 1;
    Metrics.record_max peak_inflight_c shard.Shard.inflight;
    Wire.send shard.Shard.ch { Protocol.id; deadline_ms; query };
    if not shard.Shard.ch.Wire.alive then on_death shard
  in
  let route_request c ~arrival (req : Protocol.request) =
    Handler.note_request req.Protocol.query;
    let id = req.Protocol.id in
    match req.Protocol.query with
    | Protocol.List ->
        (* answered locally, with the same payload builder as a worker —
           byte-identical and no cross-process hop *)
        reply c (Protocol.ok_reply ~id (Protocol.list_payload entries));
        Handler.observe_latency ~kind:"list" (lat_us arrival)
    | Protocol.Shutdown ->
        reply c (Protocol.ok_reply ~id (Json.Obj [ ("bye", Json.Bool true) ]));
        Handler.observe_latency ~kind:"shutdown" (lat_us arrival);
        stopping := true
    | Protocol.Stats ->
        let live = List.filter (fun s -> s.Shard.ch.Wire.alive) (Array.to_list shards) in
        let g =
          {
            g_conn = c;
            g_client_id = id;
            g_arrival = arrival;
            g_remaining = List.length live;
            g_parts = [];
          }
        in
        if live = [] then finish_gather g
        else
          List.iter
            (fun s -> forward s (Part { gather = g; shard = s.Shard.id }) Protocol.Stats)
            live
    | (Protocol.Solve { problem; size; seed } | Protocol.Warm { problem; size; seed })
    | Protocol.Probe { problem; size; seed; _ }
    | Protocol.Trace { problem; size; seed; _ } ->
        let key = Ring.session_key ~problem ~size ~seed in
        let sid = Ring.lookup ring key in
        let shard = shards.(sid) in
        if (not shard.Shard.ch.Wire.alive) && not !stopping then revive shard;
        if not shard.Shard.ch.Wire.alive then begin
          Metrics.incr lost_c;
          reply_error c ~id ~code:Protocol.Worker_lost
            ~message:(Printf.sprintf "shard %d worker is down" sid)
        end
        else if shard.Shard.inflight >= queue_depth then begin
          Metrics.incr shed_c;
          reply_error c ~id ~code:Protocol.Overloaded
            ~message:
              (Printf.sprintf "shard %d queue full (%d requests in flight)" sid
                 shard.Shard.inflight)
        end
        else begin
          Metrics.incr routed_c;
          Shard.note_warm shard ~key (Protocol.Warm { problem; size; seed });
          forward shard
            (Client
               {
                 conn = c;
                 client_id = id;
                 kind = Protocol.kind req.Protocol.query;
                 arrival;
                 shard = sid;
               })
            ?deadline_ms:req.Protocol.deadline_ms req.Protocol.query
        end
  in
  let rec drain_shard s =
    match Protocol.next_frame s.Shard.ch.Wire.dec with
    | Ok None -> ()
    | Error _ -> on_death s
    | Ok (Some body) -> (
        match split_reply body with
        | None -> on_death s
        | Some (iid, rest) ->
            (match Hashtbl.find_opt routes iid with
            | None -> ()
            | Some r ->
                Hashtbl.remove routes iid;
                s.Shard.inflight <- max 0 (s.Shard.inflight - 1);
                (match r with
                | Client { conn; client_id; kind; arrival; _ } ->
                    reply_raw conn (id_prefix ^ string_of_int client_id ^ rest);
                    Handler.observe_latency ~kind (lat_us arrival)
                | Part { gather; _ } ->
                    (match Result.bind (Json.parse body) Protocol.reply_of_json with
                    | Ok { Protocol.body = Ok payload; _ } ->
                        gather.g_parts <- (s.Shard.id, payload) :: gather.g_parts
                    | _ -> ());
                    gather.g_remaining <- gather.g_remaining - 1;
                    if gather.g_remaining <= 0 then finish_gather gather
                | Internal _ -> (
                    (* re-warm replies: count snapshot loads vs rebuilds
                       so `stats` shows whether a configured store is
                       actually absorbing post-kill warm-up *)
                    match Result.bind (Json.parse body) Protocol.reply_of_json with
                    | Ok { Protocol.body = Ok payload; _ } -> (
                        match Option.bind (Json.member payload "source") Json.to_str with
                        | Some "snap" -> Metrics.incr rewarm_snap_c
                        | Some ("build" | "cache") -> Metrics.incr rewarm_build_c
                        | Some _ | None -> ())
                    | _ -> ())));
            if s.Shard.ch.Wire.alive then drain_shard s)
  in
  (* ingress is rejected by the same function as the single-process
     server ({!Wire.next_request}), so the bytes match; the drain stops
     once [shutdown] is routed *)
  let rec drain_conn c =
    let arrival = Unix.gettimeofday () in
    match Wire.next_request c.Wire.dec with
    | None -> ()
    | Some ingress ->
        (match ingress with
        | Error { Wire.id; message; close } ->
            reply_error c ~id ~code:Protocol.Bad_request ~message;
            if close then Wire.close c
        | Ok req -> route_request c ~arrival req);
        if c.Wire.alive && not !stopping then drain_conn c
  in
  while not !stopping do
    conns := List.filter (fun c -> c.Wire.alive) !conns;
    let watch =
      (listen :: List.map (fun c -> c.Wire.fd) !conns)
      @ List.filter_map
          (fun s -> if s.Shard.ch.Wire.alive then Some s.Shard.ch.Wire.fd else None)
          (Array.to_list shards)
    in
    let readable, _, _ = Unix.select watch [] [] (-1.0) in
    if List.mem listen readable then begin
      let fd, _ = Unix.accept ~cloexec:true listen in
      conns := Wire.of_fd fd :: !conns
    end;
    (* a shard that dies while we process its sibling may be respawned
       onto a recycled descriptor number: the generation snapshot keeps
       us from reading a fresh, empty channel and blocking *)
    let ready_shards =
      List.filter_map
        (fun s ->
          if s.Shard.ch.Wire.alive && List.mem s.Shard.ch.Wire.fd readable then
            Some (s, s.Shard.respawns)
          else None)
        (Array.to_list shards)
    in
    List.iter
      (fun (s, gen) ->
        if s.Shard.ch.Wire.alive && s.Shard.respawns = gen then
          match Wire.read s.Shard.ch with Wire.Eof -> on_death s | Wire.Data -> drain_shard s)
      ready_shards;
    List.iter
      (fun c ->
        if c.Wire.alive && (not !stopping) && List.mem c.Wire.fd readable
           && Wire.read c = Wire.Data
        then drain_conn c)
      !conns
  done;
  List.iter Wire.close !conns;
  (try Unix.close listen with Unix.Unix_error _ -> ());
  Array.iter
    (fun s ->
      if s.Shard.ch.Wire.alive then begin
        Wire.close s.Shard.ch;
        Shard.reap s
      end)
    shards;
  !answered
