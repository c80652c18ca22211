(** One worker under supervision: child process, socketpair channel,
    and the shard's warm-session ledger (see {!Supervisor} for the loop
    that drives these).

    The ledger mirrors the worker's resident-instance LRU — same
    capacity, same recency order — so after a respawn the supervisor can
    replay [warm] queries and restore the sessions the dead worker had
    built.  All fields are owned by the supervisor's single loop; there
    is no locking. *)

type spawn = shard:int -> fd:Unix.file_descr -> close_fds:Unix.file_descr list -> int
(** Start a worker for shard [shard], serving [fd] (one end of a
    socketpair; the callee owns it).  [close_fds] lists the supervisor's
    other descriptors — a fork-based spawn must close them in the child,
    an exec-based spawn can ignore them (they are close-on-exec).
    Returns the child pid. *)

type t = {
  id : int;
  warm : (string, Protocol.query) Lru.t;
  mutable pid : int;
  mutable ch : Wire.t;  (** the socketpair channel; closed = the worker is down *)
  mutable inflight : int;  (** requests forwarded, reply not yet seen *)
  mutable respawns : int;
}

val create : spawn:spawn -> warm_capacity:int -> close_fds:Unix.file_descr list -> int -> t
(** Socketpair + spawn; the worker end is closed in the parent, the
    parent end is close-on-exec. *)

val reap : t -> unit
(** [waitpid] the dead child (EINTR-safe; a vanished child is fine). *)

val respawn : spawn:spawn -> close_fds:Unix.file_descr list -> t -> unit
(** Start a fresh worker on a fresh socketpair for the same shard id;
    replaces the channel, resets the in-flight count, increments
    [respawns].  The warm ledger survives — it is the re-warm work
    list. *)

val note_warm : t -> key:string -> Protocol.query -> unit
(** Record that the worker now holds this session resident (insert or
    recency-bump, evicting as the mirrored capacity dictates). *)

val warm_count : t -> int

val warm_queries : t -> Protocol.query list
(** The ledger's queries, oldest first — replaying them in order
    reproduces the worker's LRU recency. *)
