(** The oracle's serving-layer probes: round-trip identity (oracle probe
    [serve]) and sharded-tier identity (oracle probe [shard]).

    [lib/check] cannot depend on this library (the handler serves
    registry trials), so the probes live here and the CLI appends
    {!probes} to {!Vc_check.Oracle.builtin}. *)

val probe : Vc_check.Registry.entry -> size:int -> seed:int64 -> (unit, string) result
(** Round-trip one trial's queries through the {e full} wire path —
    {!Protocol.request_to_json}, framing, the incremental decoder,
    request parsing, {!Handler.handle}, reply encoding, reply parsing —
    and compare every payload byte-for-byte against direct in-process
    computation on an identically-built trial: [solve] once, [probe] and
    [trace] from three origins (first, middle, last node), [warm] once.
    Also checks that an unknown problem and an out-of-range origin come
    back as the structured [unknown_problem] / [bad_origin] errors.
    [Error] describes the first divergence. *)

val probes : exe:string -> workers:int -> Vc_check.Oracle.probe list
(** The oracle records, in order:

    - ["serve"], on every trial: {!probe} at the trial's size and seed.
    - ["shard"], on the first trial only: spawn a real sharded tier —
      [exe serve --workers N --socket tmp] — and drive a fixed corpus
      (solve, warm, probes and traces from three origins, list, unknown
      problem, out-of-range origin) through it, asserting every reply is
      {e byte-for-byte} the reply a single-process server over the full
      registry would send.  Finishes by checking the merged [stats]
      reports all [workers] alive, then shuts the tier down and reaps it
      (also on failure).  [Error] describes the first divergence. *)
