(** Incremental CNF builder over {!Sat}.

    Thin layer that owns fresh-variable allocation, the usual tseitin
    helpers, and a mirror of every clause added — the mirror is what
    makes DIMACS export and the naive reference checks in the test
    suite possible without reaching into the solver's internals. *)

type t

val create : unit -> t

val fresh : t -> int
(** Allocate a fresh variable (1-based DIMACS index). *)

val n_vars : t -> int

val add : t -> int list -> unit
(** Add a clause of DIMACS literals. *)

val implies : t -> int -> int -> unit
(** [implies t a b]: a → b. *)

val at_most_one : t -> int list -> unit
(** Pairwise at-most-one over literals. *)

val exactly_one : t -> int list -> unit

val define_and : t -> int list -> int
(** Fresh [g] with g ↔ (l1 ∧ …); returns [g]. *)

val solve : t -> Sat.verdict
val value : t -> int -> bool

(** Level-0 unit propagation only; see {!Sat.simplify}. *)
val simplify : t -> [ `Unsat | `Fixed of int list ]
val stats : t -> Sat.stats
val certify_unsat : ?budget:int -> t -> (unit, string) result

val n_clauses : t -> int

val clauses : t -> int list list
(** Every clause added so far, in insertion order, as given (no
    normalization). *)

val to_dimacs : t -> string
(** DIMACS CNF text for the current formula. *)

val write_dimacs : t -> string -> unit
(** [write_dimacs t path] writes {!to_dimacs} to [path]. *)

val of_dimacs : string -> (t, string) result
(** Parse DIMACS CNF text into a fresh builder: comments and the
    problem line are honoured, clauses may span lines.  Returns
    [Error] on malformed input (bad header, literal out of the
    declared range, missing terminating 0). *)
