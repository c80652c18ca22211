(** The serving daemon's event loop: accept, frame, batch, dispatch,
    reply.

    One [select]-driven loop owns every connection, each a {!Wire}
    channel.  Each cycle it reads readable sockets into their channels,
    turns every complete frame into a request or an ingress rejection
    with {!Wire.next_request} (the function the sharded supervisor uses
    too), enqueues the requests (shedding with an [overloaded] error
    once the bounded queue is full — a structured reply, never a hang or
    a crash), then dispatches the queued batch: requests whose deadline
    expired while queued get a [deadline_exceeded] error; the rest are
    {!Handler.prepare}d on the loop's domain and their thunks fanned out
    over the optional {!Vc_exec.Pool} ({e request batching}: independent
    requests that arrive together are computed in parallel, replies are
    written in arrival order).  A handler exception becomes a
    [server_error] reply for that request only.

    Deadlines are checked at dispatch, not mid-computation — a running
    request is never preempted; [deadline_ms = 0] therefore expires
    deterministically (useful for testing).  Latency is measured from
    frame completion to reply write and recorded per request kind via
    {!Handler.observe_latency}.

    The loop exits after replying to a [shutdown] request, closing every
    connection and the listening socket.  A connection that sends an
    unrecoverably malformed byte stream is answered with one
    [bad_request] error and closed; malformed JSON on a well-formed
    frame only fails that frame. *)

val listen_unix : path:string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket, replacing a stale socket
    file at [path] if one exists.  The caller unlinks [path] when done. *)

val listen_tcp : port:int -> Unix.file_descr
(** Bind and listen on [127.0.0.1:port] (with [SO_REUSEADDR]). *)

val run :
  handler:Handler.t ->
  ?pool:Vc_exec.Pool.t ->
  ?queue_depth:int ->
  listen:Unix.file_descr ->
  unit ->
  int
(** Serve until shutdown; returns the number of requests answered
    (including error replies).  [queue_depth] (default 64) bounds the
    number of accepted-but-undispatched requests; arrivals beyond it are
    shed.  Closes [listen] before returning. *)

val run_conn :
  handler:Handler.t ->
  ?pool:Vc_exec.Pool.t ->
  ?queue_depth:int ->
  fd:Unix.file_descr ->
  unit ->
  int
(** Worker mode: the same loop over exactly one pre-established,
    bidirectional connection (a supervisor's socketpair end) and no
    listening socket.  Returns when the peer closes the connection or
    after replying to [shutdown]; closes [fd].  Frame, deadline, queue
    and batching semantics are identical to {!run}, and ingress is
    rejected by the same {!Wire.next_request} as the supervisor's — which
    is what keeps sharded replies byte-identical to single-process
    ones. *)
