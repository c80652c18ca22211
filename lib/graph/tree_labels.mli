(** Tree labelings and the induced pseudo-forest [G_T]
    (paper Definitions 3.1, 3.3, 4.1 and Observation 3.7).

    A {e tree labeling} gives every node three pointers — parent, left
    child, right child — each either ⊥ or a port number of that node.
    The labeling is pure input data: nothing forces it to describe a real
    tree, and the whole point of the paper's constructions is that nodes
    must {e locally} discover whether it does.  A node is {e internal}
    when both of its child pointers are reciprocated, {e leaf} when it is
    not internal but its parent is, and {e inconsistent} otherwise.

    The consistent nodes with the edges "internal parent → child" form a
    directed pseudo-forest [G_T]: out-degree 0 or 2, in-degree 0 or 1, at
    most one directed cycle per component. *)

type ptr = int
(** ⊥ is represented as [0]; any positive value is a port number. *)

val bot : ptr
(** The ⊥ pointer. *)

type t = {
  parent : Iarr.t;
  left : Iarr.t;
  right : Iarr.t;
}
(** One pointer triple per node, each row an {!Iarr.t} (bigarray) so a
    labeling snapshots and loads as raw bytes alongside its graph. *)

type status = Internal | Leaf | Inconsistent

val equal_status : status -> status -> bool
val pp_status : Format.formatter -> status -> unit

type color = Red | Blue

val equal_color : color -> color -> bool
val pp_color : Format.formatter -> color -> unit
val flip_color : color -> color

type colored = {
  labels : t;
  color : color array;
}
(** A colored tree labeling (Definition 3.1): pointers plus an input
    color per node. *)

type balanced = {
  tree : t;
  left_nbr : ptr array;
  right_nbr : ptr array;
}
(** A balanced tree labeling (Definition 4.1): pointers plus lateral
    left/right-neighbor pointers. *)

val make : n:int -> t
(** All-⊥ labeling for [n] nodes. *)

(** {1 Status}

    [status] evaluates Definition 3.3 with full knowledge of the graph.
    [status_gen] is the same decision procedure parameterised over data
    accessors, so probe-model algorithms can run it against their query
    interface and pay for exactly the nodes it touches. *)

val status_gen :
  degree:(Graph.node -> int) ->
  pointers:(Graph.node -> ptr * ptr * ptr) ->
  follow:(Graph.node -> ptr -> Graph.node) ->
  Graph.node ->
  status
(** [pointers v] returns [(parent, left, right)] of [v]; [follow v p]
    resolves a pointer already known to be a valid port at [v] (it is
    called only with [1 <= p <= degree v]). *)

val status : Graph.t -> t -> Graph.node -> status

val is_internal : Graph.t -> t -> Graph.node -> bool
val is_leaf : Graph.t -> t -> Graph.node -> bool
val is_consistent : Graph.t -> t -> Graph.node -> bool

(** {1 The pseudo-forest [G_T]} *)

val gt_children : Graph.t -> t -> Graph.node -> (Graph.node * Graph.node) option
(** [gt_children g lab v] is [Some (left_child, right_child)] when [v] is
    internal, [None] otherwise.  Both children belong to [G_T]. *)

val gt_parent : Graph.t -> t -> Graph.node -> Graph.node option
(** [gt_parent g lab v] is the [G_T]-parent of [v]: the node [u] reached
    by [v]'s parent pointer, provided [v] is consistent and [u] is
    internal with [v] as one of its reciprocated children. *)

val gt_nodes : Graph.t -> t -> Graph.node list
(** Consistent nodes, i.e. the vertex set of [G_T]. *)

(** {1 Building labelings} *)

val of_structure :
  Graph.t ->
  parent:(Graph.node -> Graph.node option) ->
  left:(Graph.node -> Graph.node option) ->
  right:(Graph.node -> Graph.node option) ->
  t
(** Compute the port-level labeling matching a structural description.
    @raise Invalid_argument if a named node is not adjacent. *)

val of_complete_binary_tree : depth:int -> Graph.t * t
(** The complete binary tree of {!Builder.complete_binary_tree} together
    with its consistent labeling. *)

val of_random_binary_tree : n:int -> rng:Vc_rng.Splitmix.t -> Graph.t * t
(** A random all-internal-or-leaf tree with its consistent labeling. *)

val copy : t -> t
