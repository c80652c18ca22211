(** Load generators for the serving daemon — a closed loop and an open
    loop.

    {b Closed loop} ({!run}): [clients] connections each keep exactly
    one request in flight; every round, all clients write their next
    request before any reply is read, so the server's select loop sees
    them together and dispatches them as one batch.

    {b Open loop} ({!run_open}): requests arrive as a Poisson process at
    a target rate — exponential inter-arrival gaps, derived
    deterministically from the seed — regardless of how fast the server
    answers.  Arrivals are fanned out round-robin over non-blocking
    connections (by default one per shard the server reports, so a
    sharded tier's worker channels stay independently busy), and
    latency is measured from the {e scheduled} arrival so client-side
    backlog is charged to the tail (no coordinated omission).  This is
    the loop that finds the saturation point: pushed past capacity the
    server sheds with [overloaded], reported as {!open_summary.os_shed}.

    In both loops the request plan — kinds drawn from a weighted [mix],
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
  clients : int;
  requests : int;  (** total, spread round-robin over the clients *)
  mix : (string * int) list;  (** request kind → weight, weights > 0 *)
  seed : int64;
  deadline_ms : int option;  (** attached to every generated request *)
  verify : bool;
  shutdown : bool;  (** finish with a [shutdown] request on client 0 *)
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
  s_clients : int;
  s_requests : int;  (** requests sent (excluding the final shutdown) *)
  s_ok : int;
  s_errors : (string * int) list;  (** error code → count, sorted *)
  s_mismatches : int;  (** verified replies that differed from the twin *)
  s_wall_s : float;
  s_latency : (string * percentiles) list;  (** per kind, sorted *)
  s_server_stats : Json.t option;  (** the daemon's final [stats] payload *)
}

val run : addr:Unix.sockaddr -> config -> (summary, string) result
(** Drive the daemon at [addr] over one {!Wire.connect}ion per client
    (each waits up to 10 s for the daemon to accept).  [Error] means the
    run could not complete (nothing accepting, stream closed mid-reply)
    — protocol-level error replies are counted in the summary, not
    fatal. *)

type open_config = {
  o_rate : float;  (** target arrival rate, requests/s; must be > 0 *)
  o_requests : int;
  o_conns : int option;
      (** [None]: one connection per shard the server's [stats] reports
          (1 for a single-process server) *)
  o_mix : (string * int) list;
  o_seed : int64;
  o_verify : bool;
  o_shutdown : bool;
  o_prewarm : bool;
      (** Issue a [warm] query for every distinct session in the plan
          over a blocking side connection before the measured phase, so
          instance construction is never charged to the first measured
          request of a session. *)
}

type open_summary = {
  os_rate : float;  (** target rate *)
  os_achieved : float;  (** requests / wall — equals the target only below saturation *)
  os_conns : int;
  os_requests : int;
  os_ok : int;
  os_shed : int;  (** [overloaded] replies *)
  os_worker_lost : int;  (** [worker_lost] replies *)
  os_errors : (string * int) list;
  os_mismatches : int;
  os_wall_s : float;  (** first send to last reply *)
  os_latency : (string * percentiles) list;
  os_queue_depth : (int * int) list;
      (** shard → in-flight depth at the final [stats] snapshot *)
  os_prewarm : (int * int) option;
      (** [(sessions, cold_starts)] when the run prewarmed: sessions
          warmed ahead of the measured phase and how many were cold
          (server built or snapshot-loaded rather than cache-hit) *)
  os_server_stats : Json.t option;
}

val run_open : addr:Unix.sockaddr -> open_config -> (open_summary, string) result
(** Open-loop run against the daemon at [addr]: one connection per
    measured channel, plus one for shard discovery and one for the
    prewarm, each opened like {!run}'s. *)

val summary_to_json : summary -> Json.t
val open_summary_to_json : open_summary -> Json.t
val pp_summary : Format.formatter -> summary -> unit
val pp_open_summary : Format.formatter -> open_summary -> unit
