(** Constructors for the graph families used throughout the paper.

    All builders produce validated {!Graph.t} values.  Where the paper
    fixes a particular port convention (e.g. the complete binary tree of
    Proposition 3.12: parent on port 1, children on ports 2 and 3, root
    id 1, breadth-first ids), the builder follows it exactly. *)

val path : int -> Graph.t
(** [path n] is the path on [n >= 1] nodes [0 - 1 - ... - n-1]. *)

val cycle : int -> Graph.t
(** [cycle n] is the cycle on [n >= 3] nodes.  Port 1 of node [v] leads
    to [(v+1) mod n] and port 2 to [(v-1) mod n], giving a consistent
    orientation (used by the class-B cycle-coloring problem). *)

val torus : w:int -> h:int -> Graph.t
(** [torus ~w ~h] is the 2-d torus grid on [w * h >= 9] nodes
    ([w, h >= 3], so wraparound never creates a parallel edge).  Node
    [(x, y)] is index [y*w + x]; the port numbering is the grid normal
    form the grid-LCL constructions rely on: port 1 leads east to
    [(x+1 mod w, y)], port 2 west, port 3 north to [(x, y+1 mod h)],
    port 4 south — a globally consistent orientation labelling, the
    torus analogue of {!cycle}'s successor/predecessor ports. *)

val complete_binary_tree : depth:int -> Graph.t
(** [complete_binary_tree ~depth] is the complete rooted binary tree of
    the given depth ([depth >= 0]), with [2^(depth+1) - 1] nodes.  Node 0
    is the root; node [v]'s children are [2v+1] (left) and [2v+2]
    (right).  Ports follow Proposition 3.12: port 1 to the parent
    (non-root), the next two ports to the left and right child
    (non-leaf).  Identifiers are breadth-first starting at 1, so the root
    has id 1. *)

val tree_root : Graph.t -> Graph.node
(** Root of a tree built by {!complete_binary_tree} (always node 0). *)

val tree_parent : depth:int -> Graph.node -> Graph.node option
val tree_left : depth:int -> Graph.node -> Graph.node option
val tree_right : depth:int -> Graph.node -> Graph.node option
(** Structural accessors for {!complete_binary_tree} node numbering;
    [None] at the boundary (root has no parent, leaves no children). *)

val tree_depth_of : Graph.node -> int
(** Depth of a node in the {!complete_binary_tree} numbering (root 0). *)

val leaves_of_complete_tree : depth:int -> Graph.node list
(** Left-to-right list of the [2^depth] leaves. *)

val random_binary_tree : n:int -> rng:Vc_rng.Splitmix.t -> Graph.t
(** A randomly grown rooted binary tree in which every internal node has
    exactly two children.  Such a tree has an odd number of nodes; the
    builder returns exactly [2*m + 1] nodes where [m = (n-1)/2], i.e. [n]
    rounded down to the nearest odd count.  Node 0 is the root; ports
    follow the {!complete_binary_tree} convention (parent first, then
    left and right child). *)

val disjoint_union : Graph.t list -> Graph.t * int array
(** [disjoint_union gs] packs the graphs side by side.  Returns the
    packed graph and the offset of each component's node 0.  Identifiers
    are re-assigned to [1..n] in packing order.

    The packed rows are the parts' CSR rows concatenated: component [i]'s
    node [v] is node [offsets.(i) + v], keeps its port order, and its
    targets are shifted by [offsets.(i)].  The parts are validated
    graphs and no edge joins two of them, so the union is valid by
    construction and is not re-checked. *)

val of_pointers : n:int -> int array list -> Graph.t
(** [of_pointers ~n columns] is the graph on nodes [0 .. n-1] with one
    undirected edge [{v, c.(v)}] for every column [c] and every node [v]
    with [c.(v) >= 0] (a negative entry is ⊥); a pair named by several
    pointers is one edge.  Each column must have at least [n] entries.
    Node [v]'s ports list its distinct neighbors in ascending node index
    (the port order {!Graph.of_edges} gives to edges sorted as [(min,
    max)] pairs), and identifiers are [1..n].  The rows pass every check
    of {!Graph.create}.
    @raise Invalid_argument if a pointer names a node [>= n], or as
    {!Graph.create} (a pointer to its own node is a self-loop). *)

val attach : Graph.t -> extra_edges:(Graph.node * Graph.node) list -> Graph.t
(** Add edges to an existing graph.  New edges get the next free ports
    on both endpoints, in list order. *)
