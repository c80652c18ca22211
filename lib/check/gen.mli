(** The shared generator and shrinker kit for conformance testing.

    Every random object the checking subsystem needs — bounded-degree
    port-numbered graphs, colored binary-tree labelings (Definition 3.1),
    pseudo-tree instances, and adversarial "garbage" labelings for
    robustness fuzzing — is produced here, as a deterministic function of
    a seed.  The test suites ([test/]) and the differential oracle
    ({!Oracle}) both draw from this kit, so a failure reported anywhere
    is reproducible from its seed alone.

    The qcheck side exposes graphs as first-class {e specs} (shape, size,
    seed) rather than opaque [Graph.t] values: specs print compactly in
    counterexamples and shrink by halving the size, so a failing property
    minimizes to the smallest graph of the same family that still
    fails. *)

module Graph = Vc_graph.Graph
module TL = Vc_graph.Tree_labels
module Splitmix = Vc_rng.Splitmix

(** {1 Graph specs (qcheck)} *)

type shape =
  | Path
  | Cycle
  | Complete_tree
  | Random_tree
  | Cubic
  | Torus  (** {!Vc_family.Family.torus_of_size}: even-sided, normal-form ports *)
  | D_regular  (** {!Vc_family.Family.regular_of_size} at d = 4 *)
  | Expander  (** {!Vc_family.Family.expander_of_size} *)

val all_shapes : shape list
val pp_shape : Format.formatter -> shape -> unit

type graph_spec = {
  shape : shape;
  size : int;  (** approximate node count; clamped to the shape's minimum *)
  g_seed : int64;
}

val pp_spec : Format.formatter -> graph_spec -> unit

val build : graph_spec -> Graph.t
(** Deterministic: the same spec always builds the identical graph
    (structure, ports and identifiers). *)

val spec :
  ?shapes:shape list ->
  ?min_size:int ->
  ?max_size:int ->
  unit ->
  graph_spec QCheck.arbitrary
(** Arbitrary spec over the given shapes (default: all) with sizes in
    [[min_size, max_size]] (defaults 8 and 64).  Shrinks by repeatedly
    halving [size] towards [min_size]. *)

(** {1 Labeled instances (Definition 3.1 and pseudo-trees)} *)

val colored_tree : n:int -> seed:int64 -> Volcomp.Leaf_coloring.instance
(** A random all-consistent colored binary-tree labeling. *)

val pseudo_tree : cycle_len:int -> seed:int64 -> Volcomp.Leaf_coloring.instance
(** A pseudo-tree whose [G_T] contains one directed cycle (Observation
    3.7's cycle case). *)

(** {1 Garbage labelings (robustness fuzzing)}

    Nothing in an LCL input promises well-formed pointers; solvers and
    checkers must be total on arbitrary labels.  These generators
    produce uniformly garbage inputs — pointers possibly exceeding the
    degree, arbitrary colors and levels. *)

val garbage_color : Splitmix.t -> TL.color

val garbage_graph : Splitmix.t -> Graph.t
(** A random near-cubic graph or a random binary tree, 20–50 nodes. *)

val garbage_leaf_input : Splitmix.t -> Volcomp.Leaf_coloring.node_input

val garbage_balanced_input : Splitmix.t -> Volcomp.Balanced_tree.node_input

val garbage_hybrid_input : Splitmix.t -> Volcomp.Hybrid_thc.node_input

(** {1 Random probe programs (qcheck)}

    Well-formed-by-construction {!Vc_ir.Ir.program}s for fuzzing the two
    executors against each other.  Programs are laid out as guarded
    blocks with forward-only control flow (a branch or jump targets a
    strictly later block or the terminal exit block), so they terminate
    structurally; probes and pops appear both guarded ([C_port_ok] /
    [C_queue_empty]) and unguarded, and about half the programs declare
    a finite volume or distance envelope, so the truncation paths are
    exercised as thoroughly as the happy paths. *)

type program_spec = { p_blocks : int; p_seed : int64 }

val pp_program_spec : Format.formatter -> program_spec -> unit

val ir_spec : program_spec -> (int, int) Vc_ir.Ir.spec
(** {!build_ir_program} bound to the generated-program observation
    encoding: inputs are node identifiers ({!ir_input}), observation
    fields are port-sized hashes of them, outputs are ints — constants
    plus one checksum combinator folding over everything the env
    exposes, so any executor divergence flips the output. *)

val ir_input : Graph.t -> Graph.node -> int
(** The instance input generated programs run against: [Graph.id]. *)

val ir_program :
  ?min_blocks:int -> ?max_blocks:int -> unit -> program_spec QCheck.arbitrary
(** Arbitrary program spec with [min_blocks] (default 1) to [max_blocks]
    (default 8) body blocks; shrinks by dropping trailing blocks. *)
