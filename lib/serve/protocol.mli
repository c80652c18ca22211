(** Wire protocol of the query-serving daemon.

    {b Framing.}  One frame per request or reply: the decimal byte
    length of the JSON body, one space, the body, one ['\n'] —
    length-prefixed so a reader never scans untrusted bytes for a
    delimiter, newline-terminated so transcripts stay greppable.  Frames
    above {!max_frame_bytes} are a protocol error.

    {b Requests} are one JSON object:
    [{"id":N,"kind":K,…,"deadline_ms":D?}] where [K] is one of [solve],
    [probe], [trace], [list], [stats], [shutdown].  The instance-backed
    kinds carry [problem] (registry name, matched case-insensitively),
    [size] and [seed] (the trial seed, a decimal string since it spans
    the full int64 range); [probe] and [trace] add [origin].  The
    optional [deadline_ms] is relative to server receipt; [0] means
    "already expired" (useful for testing the deadline path).

    {b Replies} echo the id: [{"id":N,"ok":P}] on success, or
    [{"id":N,"error":{"code":C,"message":M}}] — where [C] is a stable
    machine-readable {!error_code} string — on any failure, including
    overload shedding and expired deadlines.  A server never answers a
    well-framed request with silence or a closed socket.

    The payload builders at the bottom are the {e single} encoders for
    [solve]/[probe]/[trace]/[list] results: the server, the in-process
    conformance probe and the loadgen differential check all call the
    same functions, which is what makes byte-identical comparison
    meaningful. *)

module Json = Vc_obs.Json
module Registry = Vc_check.Registry

type query =
  | Solve of { problem : string; size : int; seed : int64 }
      (** run every registered solver from every node, like a direct
          [Runner.solve_and_check] sweep *)
  | Probe of { problem : string; size : int; seed : int64; origin : int }
      (** one reference-solver run from one origin *)
  | Trace of { problem : string; size : int; seed : int64; origin : int }
      (** like [Probe] but the reply carries the full event transcript *)
  | Warm of { problem : string; size : int; seed : int64 }
      (** build (or touch) the resident instance without computing
          anything — the supervisor's session re-warm path after a
          worker respawn *)
  | List  (** the problem registry *)
  | Stats  (** server counters, latency histograms, cache occupancy *)
  | Shutdown  (** acknowledge, finish the batch, exit cleanly *)

type request = { id : int; deadline_ms : int option; query : query }

val kind : query -> string
(** ["solve"], ["probe"], ["trace"], ["warm"], ["list"], ["stats"],
    ["shutdown"]. *)

type error_code =
  | Bad_request  (** malformed frame, JSON, or missing/ill-typed field *)
  | Unknown_problem
  | Bad_origin  (** origin outside the instance *)
  | Deadline_exceeded
  | Overloaded  (** shed: the bounded queue was full on arrival *)
  | Worker_lost
      (** the shard worker holding this in-flight request died; the
          supervisor respawned it — retry is safe and will hit the
          re-warmed session *)
  | Server_error  (** the handler raised; the server survives *)

val code_to_string : error_code -> string

(** {1 Request and reply codecs} *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result

val ok_reply : id:int -> Json.t -> Json.t
val error_reply : id:int -> code:error_code -> message:string -> Json.t

type reply = { r_id : int; body : (Json.t, error_code * string) result }

val reply_of_json : Json.t -> (reply, string) result

(** {1 Framing} *)

val max_frame_bytes : int
(** Upper bound on a frame body (16 MiB) — backpressure against a
    malicious or broken peer. *)

val frame : string -> string
(** [frame body] is ["<length> <body>\n"]. *)

type decoder
(** Incremental frame reassembly over a byte stream. *)

val decoder : unit -> decoder

val feed : decoder -> bytes -> int -> unit
(** [feed d buf len] appends [buf[0..len)] to the pending input. *)

val next_frame : decoder -> (string option, string) result
(** The next complete frame body, [Ok None] when more input is needed,
    [Error] when the stream is unrecoverably malformed (bad prefix or
    oversized frame) — the connection should be dropped. *)

(** {1 Result payloads (shared by server, conformance probe and loadgen)} *)

val solve_payload : problem:string -> n:int -> Registry.solver_outcome list -> Json.t
val probe_payload : problem:string -> origin:int -> Registry.probe_summary -> Json.t
val trace_payload :
  problem:string -> origin:int -> Registry.probe_summary -> Vc_obs.Trace.event list -> Json.t
val warm_payload : problem:string -> size:int -> n:int -> source:string -> Json.t
(** [source] says where the resident instance came from: ["cache"] (it
    was already warm), ["build"] (constructed from scratch) or ["snap"]
    (loaded from a snapshot store). *)

val list_payload : Registry.entry list -> Json.t
