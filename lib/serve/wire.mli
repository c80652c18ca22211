(** One framed connection over {!Protocol}'s codec — the single socket
    code of the serving tier.  The server's and the supervisor's client
    connections, a supervisor's worker channels and every client
    (loadgen, the conformance probe, the CLI, the bench harness, the
    tests) are this channel.

    Reads go through a per-domain scratch buffer into the channel's own
    {!Protocol.decoder}.  A peer that resets or stops reading only
    closes its own channel: [EPIPE]/[ECONNRESET] mark it dead, never
    raise. *)

type t = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  mutable alive : bool;
}

val of_fd : Unix.file_descr -> t
(** A live channel over [fd]; the channel owns the descriptor. *)

val close : t -> unit
(** Close the descriptor and mark the channel dead (idempotent). *)

val write : t -> string -> bool
(** Blocking write of the whole string (already framed).  [false] when
    the channel is, or has just become, dead: [EPIPE] or [ECONNRESET]
    closes it. *)

type input = Eof | Data

val read : t -> input
(** One [read] into the decoder.  [Eof] — the channel now closed — on
    end of stream, a reset peer or a dead channel.  Other errors (such
    as [EAGAIN] on a non-blocking descriptor) raise. *)

(** {1 Server side} *)

type rejection = { id : int; message : string; close : bool }
(** An ingress frame that is not a request, answered with one
    [bad_request] error carrying [id] and [message]; [close] says the
    byte stream is unrecoverable and the connection must be closed after
    that reply. *)

val next_request : Protocol.decoder -> (Protocol.request, rejection) result option
(** The next buffered frame as a request, [None] when no complete frame
    is buffered.  This is the one place ingress is rejected, so the
    single-process server and the sharded supervisor send the same
    bytes: a malformed frame is ["bad frame: …"] with id 0 and [close];
    malformed JSON is id 0; a JSON object {!Protocol.request_of_json}
    refuses keeps its ["id"] member when that is a non-negative integer,
    else id 0. *)

(** {1 Client side} *)

val connect : Unix.sockaddr -> (t, string) result
(** Connect a close-on-exec stream socket.  A server binds its socket
    some time after it is spawned, so [ECONNREFUSED], [ENOENT] and
    [ENOTSOCK] (a placeholder file at the path) are retried every 10 ms
    for up to 10 s. *)

val send : t -> Protocol.request -> unit
(** Frame and write one request.  A failed write closes the channel, so
    the following {!read_body} reports it. *)

val read_body : t -> (string, string) result
(** Block until the next whole frame and return its body — the raw
    reply bytes.  [Error] on a framing error or a connection closed
    before a whole frame arrived. *)
