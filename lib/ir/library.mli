(** The shipped IR ports of the core solvers, with their closure
    counterparts as differential oracles.

    Each port reproduces its closure solver's probe schedule {e exactly}
    — same queries, same order, including quirks like [children]'s
    re-issued status queries in LeafColoring — so oracle probe [ir] can
    demand byte-identical outputs {e and} cost envelopes. *)

module TL = Vc_graph.Tree_labels
module LC = Volcomp.Leaf_coloring
module TR = Volcomp.Trivial_lcl

val degree_parity : (unit, TR.parity) Ir.spec
(** Branch on origin degree parity; 0 queries. *)

val cycle_coloring : n:int -> (unit, int) Ir.spec
(** Cole–Vishkin on oriented cycles: two straight-line walks (3 hops on
    port 1, [rounds_needed n + 3] hops on port 2), color arithmetic in
    the output combinator over the logged identifiers. *)

val probe_tree_status : (LC.node_input, TL.status) Ir.spec
(** The Definition 3.3 status decision at the origin, as a standalone
    program (also the macro inside {!leaf_coloring}). *)

val leaf_coloring : (LC.node_input, TL.color) Ir.spec
(** Proposition 3.9's nearest-leaf BFS, queue-based. *)

val tree_obs : LC.node_input -> int -> int
(** The observation encoding of the tree-labeling programs: fields 0–2
    are the parent/left/right pointers, field 3 the input color
    (Red = 0, Blue = 1). *)

val status_solver : (LC.node_input, TL.status) Vc_lcl.Lcl.solver
(** The closure oracle of {!probe_tree_status} (Definition 3.3 via
    [Probe_tree.status]); also what the bench rows race against. *)

(** {1 Catalogue (for the [volcomp ir] CLI and tests)} *)

type packed =
  | Packed : {
      spec : ('i, 'o) Ir.spec;
      graph : Vc_graph.Graph.t;
      input : Vc_graph.Graph.node -> 'i;
      world : 'i Vc_model.World.t;
      solver : ('i, 'o) Vc_lcl.Lcl.solver;  (** the closure oracle *)
      pp_output : Format.formatter -> 'o -> unit;
    }
      -> packed

val names : unit -> string list

val program : name:string -> n:int -> Ir.program option
(** The program alone ([n] parameterizes {!cycle_coloring}). *)

val instance : name:string -> size:int -> seed:int64 -> packed option
(** A deterministic instance on the program's natural graph family. *)
