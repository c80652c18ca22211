(** The instrumented probe executor (paper Section 2.2, Definitions
    2.1–2.2).

    An algorithm is an OCaml function over a context {!ctx}.  Through the
    context it can: look at the view of any node it has visited, issue
    [query(w, j)] probes (which extend the visited set), and read the
    private random bits of visited nodes.  The executor enforces the
    model's rules — queries only from visited nodes, random strings read
    sequentially and subject to the randomness regime — and accounts:

    - VOL: the number of distinct visited nodes (Definition 2.2);
    - DIST: the maximum graph distance from the origin over visited
      nodes (Definition 2.1);
    - the number of [query] calls and of random bits read.

    Budgets may cap volume or distance; exceeding a budget aborts the
    execution, modeling the "truncate and output arbitrarily" device of
    Remark 3.11 and the distance-limited algorithms of
    Proposition 3.12. *)

exception Illegal of string
(** Raised when an algorithm violates the model (querying from an
    unvisited node, invalid port, reading forbidden randomness). *)

type budget = {
  max_volume : int option;
  max_distance : int option;
}

val unlimited : budget

val volume_budget : int -> budget
val distance_budget : int -> budget

type 'i ctx

(** {1 Context operations (the algorithm-facing API)} *)

val origin : 'i ctx -> Vc_graph.Graph.node
val n : 'i ctx -> int
(** The number of nodes of the input graph, known to every algorithm. *)

val view : 'i ctx -> Vc_graph.Graph.node -> 'i View.t
(** View of a visited node. @raise Illegal if the node is unvisited. *)

val input : 'i ctx -> Vc_graph.Graph.node -> 'i
val degree : 'i ctx -> Vc_graph.Graph.node -> int
val id : 'i ctx -> Vc_graph.Graph.node -> int

val query : 'i ctx -> at:Vc_graph.Graph.node -> port:int -> Vc_graph.Graph.node
(** [query ctx ~at ~port] performs one probe.  The resolved node joins
    the visited set and its view becomes accessible.  Repeat queries are
    answered consistently and still count as queries (but not as new
    volume).
    @raise Illegal if [at] is unvisited or [port] is out of range. *)

val visited : 'i ctx -> Vc_graph.Graph.node -> bool

val resolved : 'i ctx -> at:Vc_graph.Graph.node -> port:int -> Vc_graph.Graph.node option
(** What an earlier [query ~at ~port] returned, if any — lets algorithms
    consult their own exploration history for free. *)

val rand_bit : 'i ctx -> Vc_graph.Graph.node -> bool
(** Read the next unread (within this execution) bit of a visited node's
    private random string.
    @raise Illegal if the node is unvisited, if the execution is
    deterministic, or if the randomness regime forbids the read. *)

val rand_bit_at : 'i ctx -> Vc_graph.Graph.node -> int -> bool
(** Read a specific index of the node's string (still counted). *)

val truncate : 'i ctx -> 'a
(** Voluntarily abort the execution: the run ends with [output = None],
    [aborted = true] and the costs accumulated so far — the same
    "truncate and output arbitrarily" device (Remark 3.11) that a budget
    overrun triggers, but under algorithm control.  Never returns. *)

val volume : 'i ctx -> int
val queries : 'i ctx -> int
val visited_nodes : 'i ctx -> Vc_graph.Graph.node list
(** In order of first visit; head is the origin.  Builds a fresh list on
    every call, O(volume). *)

(** {1 Running executions} *)

type 'o result = {
  output : 'o option;  (** [None] when a budget aborted the run *)
  volume : int;
  distance : int;
  queries : int;
  rand_bits : int;
  aborted : bool;
}

val run :
  world:'i World.t ->
  ?randomness:Vc_rng.Randomness.t ->
  ?budget:budget ->
  ?trace:Vc_obs.Trace.sink ->
  origin:Vc_graph.Graph.node ->
  ('i ctx -> 'o) ->
  'o result
(** Execute the algorithm from [origin].  When [randomness] is absent the
    execution is deterministic and {!rand_bit} raises.  The context is
    valid only while the algorithm runs.

    When [trace] is given, every world interaction is emitted to the sink
    in execution order as one {!Vc_obs.Trace.event} session: a
    [Session_open] and the origin's [View] first, then a [Probe] per
    query (including repeats), a [Dist] and [View] when a node is
    admitted (the [Dist] precedes a distance-budget abort; the [View]
    only follows a successful admit), a [Rand] per random bit, and
    finally a [Session_close] carrying the cost vector — also emitted,
    with [aborted = true], when a budget aborts the run.  Passing a
    {!Vc_obs.Trace.checking} sink makes the run a replay that asserts
    bit-identical behavior against a recorded transcript. *)

