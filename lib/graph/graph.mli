(** Bounded-degree port-numbered graphs (paper Section 2.1).

    A graph is a set of nodes [0 .. n-1], each carrying a unique
    identifier, with a port-numbered adjacency structure: node [v]'s
    incident edges are numbered [1 .. degree v], and [neighbor g v p] is
    "[v]'s [p]-th neighbor".  Port numberings on the two endpoints of an
    edge are independent, exactly as in the paper's model.

    Values of type {!t} are immutable once created and are validated at
    construction time: adjacency must be symmetric, self-loops and
    parallel edges are rejected, and identifiers must be distinct. *)

type node = int
(** Dense node index in [0 .. n-1]. *)

type port = int
(** 1-based port number; [p] is valid at [v] iff [1 <= p <= degree v]. *)

type t

val create : ids:int array -> adj:node array array -> t
(** [create ~ids ~adj] builds a graph with [Array.length ids] nodes where
    [adj.(v)] lists [v]'s neighbors in port order ([adj.(v).(p-1)] is the
    neighbor on port [p]).
    @raise Invalid_argument if the adjacency is not symmetric, contains a
    self-loop or a parallel edge, or if identifiers are not distinct. *)

val of_csr : ids:Iarr.t -> off:Iarr.t -> tgt:Iarr.t -> t
(** [of_csr ~ids ~off ~tgt] adopts CSR rows built by the caller: node
    [v]'s neighbors, in port order, are [tgt.{off.{v}} ..
    tgt.{off.{v+1} - 1}].  The rows are validated exactly as by
    {!create} (which builds its rows and calls this), with the same
    messages; they are shared, not copied, and must not be written
    afterwards.
    @raise Invalid_argument as {!create}, or if [off] does not hold
    [n+1] non-decreasing offsets from [0] to [Iarr.length tgt]. *)

val of_edges : ?ids:int array -> n:int -> (node * node) list -> t
(** [of_edges ~n edges] assigns ports in the order edges are listed: for
    each endpoint, its next free port.  Identifiers default to
    [v + 1]. *)

val n : t -> int
(** Number of nodes. *)

val max_degree : t -> int
(** The maximum degree Δ of the graph (0 for an empty graph). *)

val degree : t -> node -> int

val id : t -> node -> int
(** The unique identifier of a node. *)

val node_of_id : t -> int -> node option
(** Inverse of {!id}. *)

val neighbor : t -> node -> port -> node
(** [neighbor g v p] is the node reached from [v] via port [p].
    @raise Invalid_argument if [p] is not a valid port at [v]. *)

val unsafe_neighbor : t -> node -> port -> node
(** {!neighbor} without the port check: the caller must have already
    established [1 <= p <= degree g v], or the read is out of bounds.
    For validated hot loops (the batched IR executor) only. *)

val csr_offsets : t -> Iarr.t
(** The physical CSR offset row: node [v]'s neighbors live at indices
    [csr_offsets g].{v} .. [csr_offsets g].{v+1} - 1 of {!csr_targets}.
    Shared, not a copy — callers must treat it as read-only.  For tight
    scan loops (the IR executor's BFS oracle) that would otherwise
    re-read the offset per neighbor through {!unsafe_neighbor}. *)

val csr_targets : t -> Iarr.t
(** The physical CSR target row paired with {!csr_offsets}.  Shared, not
    a copy — read-only. *)

val csr_ids : t -> Iarr.t
(** The physical identifier row ([id g v = (csr_ids g).{v}]).  Shared,
    not a copy — read-only.  With {!csr_offsets} and {!csr_targets} this
    is the graph's complete snapshot payload. *)

val unsafe_of_csr : ids:Iarr.t -> off:Iarr.t -> tgt:Iarr.t -> max_degree:int -> t
(** Adopt pre-built CSR rows — typically views into a checksummed,
    memory-mapped snapshot ([lib/snap]) — without any structural
    validation.  The caller vouches that the rows came from a graph
    {!create} once accepted, or are built only from such rows
    ({!Builder.disjoint_union}); the arrays are shared, not copied, and
    must never be written afterwards.
    @raise Invalid_argument if [Iarr.length off <> Iarr.length ids + 1]. *)

val port_to : t -> node -> node -> port option
(** [port_to g v w] is the port of [v] leading to [w], if [v] and [w] are
    adjacent.  A scan of [v]'s port row — O(degree v), effectively O(1)
    on the bounded-degree graphs of the paper's model. *)

val neighbors : t -> node -> node array
(** All neighbors of [v], in port order.  The array is fresh. *)

val iter_neighbors : t -> node -> (node -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbor of [v] in port
    order, without allocating.  This is the hot-path alternative to
    {!neighbors}. *)

val fold_neighbors : t -> node -> init:'a -> f:('a -> node -> 'a) -> 'a
(** Allocation-free fold over [v]'s neighbors in port order. *)

val edges : t -> (node * node) list
(** Undirected edge list with [fst <= snd], each edge once. *)

val nodes : t -> node list

val iter_nodes : t -> (node -> unit) -> unit

val fold_nodes : t -> init:'a -> f:('a -> node -> 'a) -> 'a

val is_connected : t -> bool

val shuffle_ids : t -> rng:Vc_rng.Splitmix.t -> t
(** Random permutation of the identifier space [1 .. n], for experiments
    that must not depend on the default identifier order. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: one line per node with id, degree and port map. *)
