module Pool = Vc_exec.Pool
module Json = Vc_obs.Json

(* --- listening sockets ------------------------------------------------------- *)

let listen_unix ~path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

type pending = {
  p_conn : Wire.t;
  p_req : Protocol.request;
  p_arrival : float;  (** [Unix.gettimeofday] at frame completion *)
}

let expired p ~now =
  match p.p_req.Protocol.deadline_ms with
  | None -> false
  | Some d -> (now -. p.p_arrival) *. 1000. >= float_of_int d

(* --- the loop ---------------------------------------------------------------- *)

(* One loop serves both modes: [listen = Some fd] is the daemon
   (accepting forever until shutdown), [listen = None] with pre-wired
   [fds] is a supervisor worker (serving its socketpair until EOF or
   shutdown — when the last connection dies the worker is done). *)
let serve ~handler ?pool ?(queue_depth = 64) ?listen ?(fds = []) () =
  if queue_depth < 1 then invalid_arg "Server.run: queue_depth must be >= 1";
  let conns = ref (List.map Wire.of_fd fds) in
  let queue = Queue.create () in
  let answered = ref 0 in
  let stopping = ref false in
  let reply c json =
    ignore (Wire.write c (Protocol.frame (Json.to_string json)) : bool);
    incr answered
  in
  let reply_error c ~id ~code ~message =
    Handler.note_error code;
    reply c (Protocol.error_reply ~id ~code ~message)
  in
  (* Drain every complete frame the connection has buffered; a stream
     that is malformed at the framing layer gets one terminal error. *)
  let rec drain c =
    let arrival = Unix.gettimeofday () in
    match Wire.next_request c.Wire.dec with
    | None -> ()
    | Some ingress ->
        (match ingress with
        | Error { Wire.id; message; close } ->
            reply_error c ~id ~code:Protocol.Bad_request ~message;
            if close then Wire.close c
        | Ok req ->
            Handler.note_request req.Protocol.query;
            if Queue.length queue >= queue_depth then
              reply_error c ~id:req.Protocol.id ~code:Protocol.Overloaded
                ~message:
                  (Printf.sprintf "queue full (%d requests pending)" (Queue.length queue))
            else Queue.add { p_conn = c; p_req = req; p_arrival = arrival } queue);
        if c.Wire.alive then drain c
  in
  (* Dispatch the whole queue as one batch: deadline triage and
     [Handler.prepare] on this domain, compute thunks on the pool,
     replies in arrival order. *)
  let dispatch () =
    if not (Queue.is_empty queue) then begin
      let now = Unix.gettimeofday () in
      let batch = List.of_seq (Queue.to_seq queue) in
      Queue.clear queue;
      let thunks =
        List.map
          (fun p ->
            if expired p ~now then fun () ->
              Error
                ( Protocol.Deadline_exceeded,
                  Printf.sprintf "deadline of %d ms expired before dispatch"
                    (Option.value p.p_req.Protocol.deadline_ms ~default:0) )
            else
              match Handler.prepare handler p.p_req.Protocol.query with
              | thunk -> fun () -> ( try thunk () with exn -> Error (Protocol.Server_error, Printexc.to_string exn))
              | exception exn ->
                  let msg = Printexc.to_string exn in
                  fun () -> Error (Protocol.Server_error, msg))
          batch
      in
      let results =
        match pool with
        | Some p when List.length thunks > 1 -> Pool.map p (fun f -> f ()) thunks
        | _ -> List.map (fun f -> f ()) thunks
      in
      List.iter2
        (fun p result ->
          let id = p.p_req.Protocol.id in
          (match result with
          | Ok payload -> reply p.p_conn (Protocol.ok_reply ~id payload)
          | Error (code, message) -> reply_error p.p_conn ~id ~code ~message);
          let us =
            int_of_float (Float.max 0. ((Unix.gettimeofday () -. p.p_arrival) *. 1e6))
          in
          Handler.observe_latency ~kind:(Protocol.kind p.p_req.Protocol.query) us;
          if p.p_req.Protocol.query = Protocol.Shutdown then stopping := true)
        batch results
    end
  in
  let serving () =
    (not !stopping)
    && (listen <> None || List.exists (fun c -> c.Wire.alive) !conns)
  in
  while serving () do
    conns := List.filter (fun c -> c.Wire.alive) !conns;
    let watch =
      (match listen with Some l -> [ l ] | None -> []) @ List.map (fun c -> c.Wire.fd) !conns
    in
    let readable, _, _ = Unix.select watch [] [] (-1.0) in
    (match listen with
    | Some l when List.mem l readable ->
        let fd, _ = Unix.accept ~cloexec:true l in
        conns := Wire.of_fd fd :: !conns
    | _ -> ());
    List.iter
      (fun c ->
        if c.Wire.alive && List.mem c.Wire.fd readable && Wire.read c = Wire.Data then drain c)
      !conns;
    dispatch ()
  done;
  List.iter Wire.close !conns;
  (match listen with
  | Some l -> ( try Unix.close l with Unix.Unix_error _ -> ())
  | None -> ());
  !answered

let run ~handler ?pool ?queue_depth ~listen () = serve ~handler ?pool ?queue_depth ~listen ()

let run_conn ~handler ?pool ?queue_depth ~fd () = serve ~handler ?pool ?queue_depth ~fds:[ fd ] ()
