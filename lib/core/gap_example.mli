(** The volume-vs-CONGEST gap of paper Example 7.6.

    Two complete binary trees of depth [k] are joined by an edge between
    their roots.  The leaves of the V-tree hold input bits; every leaf
    of the U-tree must output the bit held by the V-leaf with the same
    left-to-right position.

    In the query model each U-leaf climbs to its root, crosses, and
    descends the mirrored path: volume O(log n).  In CONGEST, all
    [2^k = Θ(n)] bits must cross the single root edge, so any algorithm
    needs Ω(n/B) rounds with [B]-bit messages; {!run_congest} runs a
    pipelined router that attains O(n/B + log n) rounds, giving the
    matching measured upper bound.  This problem is {e not} an LCL (its
    checkability radius grows with [n]); the paper uses it to show the
    ∆^Θ(D) CONGEST-vs-volume gap is attainable for general problems
    (Observation 7.5). *)

module Graph = Vc_graph.Graph

type side = U | V

type node_input = {
  side : side;
  index : int;  (** heap index within the node's own tree *)
  depth : int;  (** tree depth [k], same for every node *)
  bit : bool option;  (** [Some b] exactly at V-leaves *)
}

type instance = {
  graph : Graph.t;
  inputs : node_input array;
  bits : bool array;  (** the V-leaf bits, left to right *)
}

val make : depth:int -> seed:int64 -> instance
(** Random bits; [n = 2·(2^{depth+1} - 1)] nodes. *)

val input : instance -> Graph.node -> node_input
val world : instance -> node_input Vc_model.World.t

val problem : (node_input, bool option) Vc_lcl.Lcl.t
(** U-leaf [i] must output [Some bits.(i)]; everyone else [None]. *)

val solve : (node_input, bool option) Vc_lcl.Lcl.solver
(** The O(log n)-volume climb-cross-descend query algorithm. *)

val solvers : (node_input, bool option) Vc_lcl.Lcl.solver list
(** All conformance-tested solvers of the problem ([[solve]]). *)

val run_congest : instance -> bandwidth:int -> bool option Vc_model.Congest.result
(** Route under the given per-edge bandwidth: V-leaf bits flow up the
    V-tree, across the root edge, and down the U-tree, at most
    [bandwidth] bits per edge per round.  Returns outputs plus the
    measured round count (expected shape: Θ(n/bandwidth + log n)). *)
