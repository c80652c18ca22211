(** Load generator for the serving daemon: one non-blocking select loop
    over [conns] connections, with two arrival policies.

    {b Closed loop} ([rate = None]): a request arrives as soon as a
    connection has nothing in flight, so each connection keeps exactly
    one request outstanding and latency runs from the send.

    {b Rate} ([rate = Some r]): requests arrive as a Poisson process at
    [r] requests/s — exponential inter-arrival gaps, derived
    deterministically from the seed — regardless of how fast the server
    answers, fanned out round-robin over the connections.  Latency runs
    from the {e scheduled} arrival, so client-side backlog is charged to
    the tail (no coordinated omission).  This is the policy that finds
    the saturation point: pushed past capacity the server sheds with
    [overloaded], counted in {!summary.s_errors}.

    In both, the request plan — kinds drawn from a weighted [mix],
    instances drawn from the registry's quick sizes over a small set of
    derived seeds (to exercise both cache hits and evictions), origins
    uniform over the instance's nodes — is a deterministic function of
    [seed].

    With [verify] on, every successful reply's payload is re-encoded and
    compared {e byte-for-byte} against the answer computed in-process by
    a twin {!Handler} over the same registry: the wire (and the shard
    tier) adds latency, not meaning.  ([stats] replies are structurally
    checked instead — the daemon's metrics legitimately differ from the
    twin's.)

    Latency is reported as nearest-rank p50/p95/p99 per request kind;
    with fewer than 3 samples the ranks collapse onto one observation,
    so they are reported as absent ([None], JSON [null]) rather than
    fabricated. *)

module Json = Vc_obs.Json

type config = {
  conns : int option;
      (** [None]: one connection per shard the server's [stats] reports
          (1 for a single-process server) *)
  requests : int;  (** total, excluding the final control requests *)
  mix : (string * int) list;  (** request kind → weight, weights > 0 *)
  seed : int64;
  rate : float option;
      (** [None]: closed loop; [Some r]: Poisson arrivals at [r] > 0
          requests/s *)
  deadline_ms : int option;  (** attached to every generated request *)
  verify : bool;
  shutdown : bool;  (** finish with a [shutdown] request *)
  prewarm : bool;
      (** Issue a [warm] query for every distinct session in the plan
          over a blocking side connection before the measured phase, so
          instance construction is never charged to the first measured
          request of a session. *)
}

val default_mix : (string * int) list
(** [solve:1, probe:4, trace:1, list:1, stats:1]. *)

val parse_mix : string -> ((string * int) list, string) result
(** Parse ["kind:weight,kind:weight,…"] (weight defaults to 1); kinds
    are [solve]/[probe]/[trace]/[warm]/[list]/[stats]. *)

type percentiles = {
  l_count : int;
  l_p50_us : int option;  (** [None] when count < 3 *)
  l_p95_us : int option;
  l_p99_us : int option;
  l_max_us : int;
}

type summary = {
  s_rate : float option;  (** target rate; [None] for the closed loop *)
  s_achieved : float;  (** requests / wall — equals a target rate only below saturation *)
  s_conns : int;
  s_requests : int;  (** requests sent (excluding the final control requests) *)
  s_ok : int;
  s_errors : (string * int) list;  (** error code → count, sorted *)
  s_mismatches : int;  (** verified replies that differed from the twin *)
  s_wall_s : float;  (** first arrival to last reply *)
  s_latency : (string * percentiles) list;  (** per kind, sorted *)
  s_queue_depth : (int * int) list;
      (** shard → in-flight depth at the final [stats] snapshot *)
  s_prewarm : (int * int) option;
      (** [(sessions, cold_starts)] when the run prewarmed: sessions
          warmed ahead of the measured phase and how many were cold
          (server built or snapshot-loaded rather than cache-hit) *)
  s_server_stats : Json.t option;  (** the daemon's final [stats] payload *)
}

val error_count : summary -> Protocol.error_code -> int
(** Replies that carried this error code ([Overloaded]: shed). *)

val run : addr:Unix.sockaddr -> config -> (summary, string) result
(** Drive the daemon at [addr]: one {!Wire.connect}ion per measured
    channel, plus one for shard discovery when [conns = None] and one
    for the prewarm (each waits up to 10 s for the daemon to accept).
    [Error] means the run could not complete (nothing accepting, stream
    closed mid-reply) — protocol-level error replies are counted in the
    summary, not fatal. *)

val summary_to_json : summary -> Json.t
val pp_summary : Format.formatter -> summary -> unit
