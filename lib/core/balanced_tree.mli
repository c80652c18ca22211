(** The BalancedTree problem (paper Section 4).

    Input: a balanced tree labeling (Definition 4.1) — a tree labeling
    plus lateral left/right-neighbor pointers.  The {e compatibility}
    conditions (Definition 4.2) are locally checkable and hold everywhere
    exactly when the pseudo-forest [G_T] consists of complete balanced
    binary trees whose levels are laterally stitched together.

    Output per node: a flag in {B, U} ("balanced"/"unbalanced") and a
    port (Definition 4.3).  Following the output ports from any node
    leads either up to the root of a balanced subtree (all B) or towards
    an incompatible node (U chain).

    Complexities (Theorem 4.5): R-DIST = D-DIST = Θ(log n) but
    R-VOL = D-VOL = Θ(n) — unlike LeafColoring, randomness does not help
    volume here.  The Ω(n) volume bound is by embedding set-disjointness
    (Proposition 4.9, Figure 5); {!embed_disjointness} and
    {!comm_world} implement that embedding with bit-exchange accounting
    per Theorem 2.9. *)

module TL = Vc_graph.Tree_labels
module Graph = Vc_graph.Graph

type node_input = {
  parent : TL.ptr;
  left : TL.ptr;
  right : TL.ptr;
  left_nbr : TL.ptr;
  right_nbr : TL.ptr;
}

val pp_node_input : Format.formatter -> node_input -> unit

type verdict = Bal | Unbal

type output = {
  verdict : verdict;
  port : TL.ptr;
}

val equal_output : output -> output -> bool
val pp_output : Format.formatter -> output -> unit

type instance = {
  graph : Graph.t;
  labels : node_input array;
}

val input : instance -> Graph.node -> node_input
val world : instance -> node_input Vc_model.World.t

(** {1 Compatibility (Definition 4.2)} *)

val compatible_gen :
  degree:(Graph.node -> int) ->
  input:(Graph.node -> node_input) ->
  follow:(Graph.node -> TL.ptr -> Graph.node) ->
  Graph.node ->
  bool
(** Evaluate compatibility through accessors ([follow] is called only
    with valid ports); reused verbatim by the global checker and by the
    probe-model solver so both pay/see exactly the same nodes. *)

val compatible : instance -> Graph.node -> bool

val status : instance -> Graph.node -> TL.status

val problem : (node_input, output) Vc_lcl.Lcl.t
(** The validity conditions of Definition 4.3.  Inconsistent nodes are
    unconstrained; when both children of a compatible internal node
    output U, pointing at either child is accepted. *)

(** {1 Instance generators} *)

val balanced_instance : depth:int -> instance
(** The fully compatible instance of Figure 5's shape: a complete binary
    tree of the given depth with all lateral pointers present.  The
    unique valid output is all-(B, P(v)). *)

val broken_pair_instance : depth:int -> break:int -> instance
(** {!balanced_instance} with the sibling pointers of leaf pair [break]
    (0-indexed from the left) erased, making that pair's parent
    incompatible. *)

val embed_disjointness : Vc_commcc.Disjointness.t -> instance
(** The embedding of Proposition 4.9: the labeling is compatible
    everywhere iff [disj(x, y) = 1].  Requires the vectors' length to be
    a power of two.  Leaf pair [i] carries bits [x_i, y_i]: the sibling
    pointers are erased iff [x_i = y_i = 1]. *)

val leaf_pair : instance -> int -> Graph.node * Graph.node
(** The [i]-th leaf pair (u_i, w_i) of an embedding instance. *)

val comm_world :
  instance -> counter:Vc_commcc.Comm_counter.t -> node_input Vc_model.World.t
(** The instance's world, instrumented for the Alice/Bob simulation of
    Theorem 2.9: each query whose answer reveals a leaf's input (the
    only labels that depend on [x, y]) is charged 2 bits; every other
    query is free. *)

val root : instance -> Graph.node

(** {1 Algorithms} *)

val solve_core :
  degree:(Graph.node -> int) ->
  input:(Graph.node -> node_input) ->
  follow:(Graph.node -> TL.ptr -> Graph.node) ->
  n:int ->
  Graph.node ->
  output
(** The Proposition 4.8 decision procedure over abstract accessors, so
    other problems (Hybrid-THC embeds BalancedTree at level 1) can run
    it against their own views.  [n] bounds the descent depth. *)

val solve_distance : (node_input, output) Vc_lcl.Lcl.solver
(** Proposition 4.8: deterministic, distance O(log n).  Volume is Θ(n)
    in the worst case — which is unavoidable (Proposition 4.9). *)

val solvers : (node_input, output) Vc_lcl.Lcl.solver list
