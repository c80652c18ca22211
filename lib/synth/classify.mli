(** Automatic Table-1 classification: drive {!Encode.synthesize} down a
    volume ladder per reference problem, reporting the minimal feasible
    volume on the problem's certificate corpus and the first infeasible
    budget below it — the machine-made analogue of the paper's
    hand-derived table.

    Three problem universes ship:

    - [degree-parity] (registry [DegreeParity]): class A; a 3-slot
      branch-on-degree template, feasible at volume 1 (the origin
      alone), infeasible at 0 by the VOL ≥ 1 axiom.
    - [cycle-coloring] (registry [CycleColoring3]): class B {e after
      normalization} — the input carries a proper 4-coloring (what
      Θ(log* n) rounds of Cole–Vishkin have already paid for; a
      finite-volume one-shot program cannot express the unbounded
      reduction itself), the output must be a proper 3-coloring.
      Feasible at volume 3 (own color + both neighbors, the mex rule)
      and infeasible at 2: every volume-2 behavior is "probe one
      neighbor, output f(own, seen)", and the corpus is a crafted cycle
      family whose induced constraints on f are non-3-colorable for
      every probe-direction map — the solver refutes them all.  That
      refutation costs ~10^5 conflicts, so {!spec.s_unsat_volume} pins
      the instant certified volume-1 rung (f injective from four colors
      into three) for the per-check probe; the CLI ladder still reaches
      the budget-2 UNSAT.
    - [leaf-coloring] (registry [LeafColoring]): class-B/C separation
      witness; the corpus is the Proposition 3.12 certificate family
      (depth-3 complete trees, internal red, all leaves one color).
      Feasible at volume 4 (descend to a leaf), infeasible at 3: within
      volume 3 the red and blue instances are indistinguishable from
      the root.  Both the budget-3 and budget-2 UNSATs sit strictly
      below the Proposition 3.13 adversary bound ⌈n/3⌉ = 5 at n = 15;
      the budget-3 proof (~1.9 × 10⁴ learned clauses) DRUP-certifies in
      under a second, so {!spec.s_unsat_volume} pins budget 3, the rung
      directly below the witness, for the per-check probe.
      {!oracle_probe} re-derives the adversary bound live with
      {!Volcomp.Adversary_leaf.duel} so the SAT verdicts and the
      adversary subsystem cross-check each other. *)

type spec = {
  s_name : string;  (** CLI name, e.g. ["degree-parity"] *)
  s_registry : string;  (** the {!Vc_check.Registry} problem it mirrors *)
  s_family : string;
      (** the graph family of the certificate corpus, matching the
          {!Vc_check.Registry.entry} family tags ("cubic", "cycle",
          "tree", …) — the seam for family-filtered synthesis runs *)
  s_radius : int;  (** synthesis distance cap *)
  s_volume : int;  (** known-feasible volume (Table 1 / corpus minimal) *)
  s_unsat_volume : int;  (** first budget expected infeasible *)
  s_bound : int option;  (** proven adversary volume lower bound, if any *)
  s_universe : Encode.universe;
  s_template : Encode.template;
}

val specs : unit -> spec list
val find : string -> spec option
(** By {!spec.s_name} (case-insensitive); also accepts the registry name. *)

val specs_for : family:string -> spec list
(** The specs whose certificate corpus lives on [family]
    (case-insensitive exact match on {!spec.s_family}); no new verdicts
    — the same ladders, restricted to one graph family. *)

type verdict = {
  v_problem : string;
  v_volume : int;
  v_radius : int;
  v_sat : bool;
  v_report : Encode.report;
}

val run :
  ?certify:bool ->
  ?dimacs_out:string ->
  spec ->
  volume:int ->
  (verdict, string) result
(** One rung of the ladder: synthesize at exactly [volume]. *)

val ladder : ?certify:bool -> spec -> (verdict list, string) result
(** From [s_volume] downward until the first UNSAT (inclusive), so the
    head is the minimal-feasible witness rung and the last rung is the
    infeasibility certificate. *)

val verdict_json : verdict -> Vc_obs.Json.t
(** Machine-readable verdict: problem, budget, outcome, witness program
    (when SAT), solver statistics, CEGIS accounting, and the DRUP
    replay's verdict ([certified]) with its failure reason
    ([certify_error], null unless [certified] is false). *)

val table_json : verdict list -> Vc_obs.Json.t

val pp_verdict : Format.formatter -> verdict -> unit

val oracle_probe : registry_name:string -> (unit, string) result option
(** Oracle probe 11, keyed by registry problem name ([None] for
    problems without a synthesis universe).  Synthesizes at [s_volume]
    and re-checks the witness independently (validates, byte-compares
    [Exec.run] vs [Exec.run_batch] per origin, runs the LCL checker),
    proves UNSAT at [s_unsat_volume] with a DRUP-certified proof, and
    for [LeafColoring] re-runs the {!Volcomp.Adversary_leaf} duel to
    confirm the UNSAT budget sits strictly below the live adversary
    bound. *)
