(** Reproduction experiments: one entry per table/figure of the paper.

    Each experiment measures cost curves over a geometric ladder of
    instance sizes and classifies them with {!Fit}.  The reproduction
    claim is about {e shape}: the fitted growth class must be the class
    the paper states (Table 1, Theorems 3.6, 4.5, 5.9, 6.3, 6.5), not
    that absolute constants match.  [quick] shrinks the ladders for CI
    use; the bench executable runs the full ladders, and [deep] extends
    each ladder one or two rungs beyond the standard profile (multi-
    million-node instances) for long calibration runs — affordable since
    lazy world sessions made probe cost Θ(ball·Δ), leaving instance
    construction as the dominant expense.

    [?pool] distributes each ladder's independent rows — and, within a
    row, the origin fan-out of {!Runner.measure} — over worker domains.
    Every run is seed-deterministic and {!Runner.merge} is exact, so a
    report is byte-for-byte identical at any pool width. *)

type measurement = {
  quantity : string;  (** e.g. "R-VOL" *)
  paper_claim : string;  (** the paper's Θ statement, verbatim *)
  expected : Fit.model list;
      (** acceptable fitted classes; the head is the nominal one
          (polylog-suppressed Θ̃ rows accept the adjacent class) *)
  points : (int * float) list;  (** (n, measured cost) *)
}

val fitted : measurement -> Fit.model

val agrees : measurement -> bool
(** The fitted class is among the expected ones. *)

type report = {
  title : string;
  measurements : measurement list;
  notes : string list;
}

val pp_report : Format.formatter -> report -> unit

val all_agree : report -> bool

val contains : string -> string -> bool
(** [contains s sub]: [sub] occurs in [s], ignoring ASCII case — the one
    rule behind every title and name filter of the CLIs. *)

val select : string -> report list -> (report list, string) result
(** The reports whose title {!contains} the filter; when none does, an
    error that lists every title. *)

(** {1 Table 1 (one report per row)} *)

val table1_leafcoloring : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
val table1_balancedtree : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report

val table1_hierarchical_thc :
  ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> k:int -> unit -> report

val table1_hybrid_thc : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
val table1_hh_thc : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report

(** {1 Figures} *)

val figure12_classes : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
(** Figures 1–2: the class-A and class-B reference problems measured in
    both distance and volume (classes C/D are covered by Table 1). *)

val figure3_lines : quick:bool -> report list -> report
(** Figure 3: renders the volume↔distance line of each Table 1 row from
    the already-computed reports. *)

val figure8_adversary : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
(** Proposition 3.13 / Figure 8 flavor: interactive adversary duels —
    the honest solver pays ≥ n/3 volume (linear series); a hasty solver
    is fooled outright. *)

val congest_gap : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
(** Observations 7.4–7.5 and Example 7.6: query volume O(log n) vs
    CONGEST rounds Θ(n/B). *)

val congest_balancedtree : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
(** Observation 7.4's other direction: BalancedTree (volume Θ(n)) solved
    in O(log n) CONGEST rounds by the flooding protocol of
    {!Volcomp.Balanced_tree_congest} — Lemma 2.5's Δ^Θ(T) is tight. *)

(** {1 Graph families (Question 7.3 playground)} *)

val family_torus : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
(** 2-d torus grid: 4-colouring and maximal matching ladders — the
    whole-component canonical solvers pay VOL Θ(n) at DIST Θ(√n)
    ("seeing far"). *)

val family_regular : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report
(** Random 4-regular graphs and shift expanders: MIS and — Question
    7.3's — sinkless-orientation ladders; VOL Θ(n) at DIST Θ(log n)
    ("seeing wide"). *)

val family_ladders : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report list
(** Both family reports, in presentation order — the list the bench
    harness embeds as its [families] JSON section. *)

(** {1 Ablations (DESIGN.md design choices)} *)

val ablation_waypoint_rate : ?pool:Vc_exec.Pool.t -> quick:bool -> unit -> report
(** Sweep the way-point constant [c]: volume against validity failures
    (Lemmas 5.16/5.18 trade-off). *)

val ablation_walk_flip : quick:bool -> unit -> report
(** RWtoLeaf with and without the revisit-flip rule on cycle-bearing
    instances: failure rates over seeds (Algorithm 1 lines 4–5). *)

val all : ?pool:Vc_exec.Pool.t -> ?deep:bool -> quick:bool -> unit -> report list
(** Every experiment, in presentation order (Figure 3 last, derived
    from the Table 1 reports). *)
