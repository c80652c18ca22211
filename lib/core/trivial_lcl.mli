(** A class-A ("local") reference problem for Figures 1–2.

    DegreeParity: every node outputs the parity of its own degree.  It
    is an LCL with checkability radius 0 and is solvable with distance
    and volume Θ(1) — the paper's class A, where the four complexity
    measures coincide (Section 1.2). *)

type parity = Even | Odd

val pp_parity : Format.formatter -> parity -> unit

val problem : (unit, parity) Vc_lcl.Lcl.t

val solve : (unit, parity) Vc_lcl.Lcl.solver
(** Constant distance and volume: looks only at the origin. *)

val solvers : (unit, parity) Vc_lcl.Lcl.solver list
(** All conformance-tested solvers of the problem ([[solve]]). *)

val world : Vc_graph.Graph.t -> unit Vc_model.World.t
