(** A self-contained CDCL SAT solver — the engine under the synthesis
    pipeline ({!Encode}, {!Classify}).

    Classic conflict-driven clause learning in the MiniSat lineage:
    two-watched-literal propagation, first-UIP conflict analysis with
    clause learning, VSIDS-style activity decay with an indexed heap,
    phase saving, and Luby restarts.  Everything is deterministic — no
    randomized polarity or order — so a synthesis run is a pure function
    of its CNF, which is what lets the smoke aliases pin verdicts.

    The solver is incremental in the CEGIS sense: after a [solve] you
    may allocate more variables and add more clauses, then [solve]
    again.  Assumptions are not supported (the CEGIS loop only ever
    strengthens), which keeps the UNSAT story simple: every learned
    clause is recorded in derivation order, and {!certify_unsat}
    replays the whole log as a reverse-unit-propagation (DRUP) proof
    against the original clauses with {!check_drup}, a checker that
    shares no state with the solver — ending with the empty clause,
    i.e. a verified final conflict under assumption-free solving. *)

type t

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;  (** literals enqueued by unit propagation *)
  learned : int;  (** clauses learned (including re-derived units) *)
  max_learned_len : int;
  restarts : int;
}

val create : unit -> t

val new_var : t -> int
(** Allocate a fresh variable; returns its 1-based DIMACS index. *)

val n_vars : t -> int

val add_clause : t -> int list -> unit
(** Add a clause of non-zero DIMACS literals ([v] positive, [-v]
    negative).  The empty clause makes the instance trivially UNSAT.
    Tautologies are dropped, duplicate literals merged.
    @raise Invalid_argument on a zero literal or an out-of-range
    variable. *)

type verdict = Sat | Unsat

val solve : t -> verdict
(** Solve the clauses added so far.  Deterministic.  After [Sat] the
    model is frozen in {!value} (later [add_clause]/[solve] calls do
    not disturb it until the next [solve]). *)

val value : t -> int -> bool
(** Model value of a variable after a [Sat] verdict.
    @raise Invalid_argument out of range or before any [Sat]. *)

val stats : t -> stats
(** Cumulative across all [solve] calls on this solver. *)

val simplify : t -> [ `Unsat | `Fixed of int list ]
(** Attach pending clauses and run unit propagation at decision level 0
    only — no decisions, no learning.  Returns the literals forced by
    propagation (DIMACS-signed, in propagation order), or [`Unsat] if
    level-0 propagation already conflicts.  Exposed so tests can check
    propagation equivalence against a naive reference propagator. *)

val check_drup :
  ?budget:int ->
  nvars:int ->
  originals:int array list ->
  int array list ->
  (unit, string) result
(** [check_drup ~nvars ~originals proof] checks [proof] as a forward
    DRUP refutation of [originals] (clauses of DIMACS literals over
    variables [1..nvars]).  Each lemma, in order, must be implied by
    unit propagation from the originals plus the earlier lemmas, and
    the last lemma must be the empty clause.  The checker keeps its own
    copies of the clauses, its own two-watched-literal lists and its
    own assignment, so a solver bug cannot vouch for itself.  [budget]
    caps the work, counted in watch-list visits plus literal scans
    (default 200 million, a few seconds); exhausting it returns
    [Error], never [Ok].  [Error] also on an out-of-range literal.  The
    message names the failing proof step. *)

val drup_log : t -> int array list * int array list
(** The solver's certification logs as DIMACS clauses: every clause
    passed to {!add_clause} (normalized, insertion order) and every
    learned clause in derivation order, ending with the empty clause
    after an [Unsat] verdict. *)

val certify_unsat : ?budget:int -> t -> (unit, string) result
(** After an [Unsat] verdict: {!check_drup} over {!drup_log}.  [Error]
    when the last verdict was not [Unsat]. *)
