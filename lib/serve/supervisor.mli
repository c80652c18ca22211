(** Sharded serving tier: a supervisor process that forks/execs [N]
    worker daemons and routes requests to them over per-worker
    socketpairs.

    Routing is by consistent hash ({!Ring}) of the request's
    [(problem, size, seed)] session key, so every warm world is resident
    on exactly one shard and repeat queries for an instance always hit
    the worker that already built it.  Every socket — client
    connections and worker channels alike — is a {!Wire} channel, and a
    client frame becomes a request or an ingress rejection in
    {!Wire.next_request}, the function the single-process {!Server}
    uses, so rejections carry its bytes.  Workers run the ordinary
    single-connection {!Server} loop; the supervisor re-encodes the
    request with a unique internal id and, on reply, splices the
    client's id back into the reply bytes without re-encoding the
    payload — a sharded response is byte-for-byte the response a
    single-process server would have sent.  Routing [shutdown] stops the
    drain: frames queued behind it on any connection go unanswered,
    while the single-process server answers every frame already
    queued.

    Fault handling: a worker death (EOF or broken pipe on its channel)
    fails every in-flight request on that shard with a structured
    [worker_lost] error, reaps the child, respawns a replacement, and
    re-warms it by replaying the shard's warm-session ledger
    ({!Shard.warm_queries}) oldest-first — with a snapshot store
    configured the replay loads instances by mmap instead of
    rebuilding, and the [serve.shard.rewarm_snap] /
    [serve.shard.rewarm_build] counters record which path each
    completed re-warm took.  Other shards are undisturbed.
    Per-shard admission control sheds with [overloaded] once a shard has
    [queue_depth] requests in flight.

    [list] is answered locally (byte-identical payload); [stats]
    broadcasts to every live worker and merges the parts under
    ["cache"]/["metrics"] (supervisor's own, including the
    [serve.shard.*] counters) plus ["workers"] and a per-shard
    ["shards"] breakdown carrying each worker's pid, in-flight count,
    respawn count, warm-ledger size and its own stats payload. *)

val fork_spawn : (unit -> Handler.t) -> Shard.spawn
(** Workers are forked children running {!Server.run_conn} on a handler
    made {e in the child} by the supplied thunk.  Fork is only safe
    before any domain has been spawned in this process — test harnesses
    use this; the CLI uses {!exec_spawn}. *)

val exec_spawn :
  ?jobs:int -> ?snap_dir:string -> cache:int -> queue_depth:int -> string -> Shard.spawn
(** Workers are fresh processes: [exe serve --worker --cache N
    --queue-depth N -j jobs] (plus [--snap-dir DIR] when [snap_dir] is
    given, so every worker shares one snapshot store) with the
    socketpair end as stdin.  Safe regardless of domains. *)

val run :
  workers:int ->
  ?cache_capacity:int ->
  ?queue_depth:int ->
  ?vnodes:int ->
  spawn:Shard.spawn ->
  listen:Unix.file_descr ->
  unit ->
  int
(** Spawn [workers] shards and serve [listen] until a [shutdown]
    request; returns the number of replies written to clients.
    [cache_capacity] (default 8) sizes each worker's resident-instance
    cache and the supervisor's mirrored warm ledgers; [queue_depth]
    (default 64) bounds per-shard in-flight requests.  Closes [listen]
    and the worker channels, and reaps every child, before returning. *)
