(** The differential conformance oracle.

    For every registry entry (or a chosen subset) the oracle builds the
    entry's trials once, then runs two data phases and a list of
    {!probe}s over them:

    - data phase ["solvers"]: every registered solver solves every
      instance; the assembled output must pass the problem's own
      checker, and the cost envelope must hold — [runs = n], no aborts,
      [VOL >= DIST >= 0], [VOL >= 1], and deterministic solvers consume
      zero random bits;
    - data phase ["mutate"]: [count] mutation-fuzzing rounds,
      round-robin over the entry's trials: every rejection must be
      anchored within the checkability radius of the mutation site, and
      at least one mutant per problem must be rejected overall;
    - each probe of the list ({!builtin} plus whatever an upper layer
      appends) runs on every trial, or on the first (smallest) trial
      only, and yields one verdict per problem.

    Everything is a deterministic function of [seed]; a failing run is
    reproducible with [volcomp check --seed N], and the CLI writes the
    failing problem's reference transcript for offline {!replay_trace}. *)

type ctx = {
  entry : Registry.entry;
  size : int;
  seed : int64;  (** the per-trial seed the trial was built from *)
  trial : Registry.trial;
  pool : Vc_exec.Pool.t option;  (** the run's pool, for probes that re-solve *)
}
(** One trial as a probe sees it. *)

type probe = {
  name : string;  (** selection key and report key, lower case *)
  first_trial_only : bool;
      (** run on the first (smallest) trial only — for probes that are
          expensive per call, such as spawning a process tier *)
  run : ctx -> (unit, string) result option;
      (** [None]: the probe does not apply to this trial (e.g. no IR
          port); [Error] describes the first divergence *)
}
(** A conformance probe.  The oracle reports an [Error msg] as
    ["<name> at size N: <msg>"] and an exception as
    ["<name> at size N raised <exn>"], and folds the trials into one
    {!Report.problem_report.p_verdicts} entry. *)

val builtin : probe list
(** The probes this library can run by itself, in report order:
    - ["merge"] (first trial): {!Vc_measure.Runner} statistics are
      bit-identical across pool widths 1, 2 and 4;
    - ["cross"]: cross-model executions (CONGEST protocols) produce
      complete, valid outputs;
    - ["lazy"]: lazy and eager worlds give bit-identical probe results;
    - ["ir"]: entries with an IR port reproduce the reference closure
      solver bit for bit — outputs and cost envelopes — under both
      {!Vc_ir.Exec} executors, budgeted and not;
    - ["replay"]: every solver's probe transcript ({!Vc_obs.Trace})
      survives a JSONL round-trip and re-drives the run bit-identically;
    - ["snap"]: a trial loaded from a snapshot store hit reproduces the
      freshly built trial's solver outcomes, per-origin probe summaries
      and trace transcript exactly.

    Layers above this library append their own records (the serving
    layer's ["serve"] and ["shard"], the synthesizer's ["synth"]). *)

val names : probe list -> string list
(** Every name [?only] accepts for a run over these probes:
    ["solvers"; "mutate"] followed by the probe names. *)

val run :
  ?pool:Vc_exec.Pool.t ->
  ?entries:Registry.entry list ->
  ?probes:probe list ->
  ?only:string list ->
  seed:int64 ->
  count:int ->
  quick:bool ->
  unit ->
  Report.t
(** [run ~seed ~count ~quick ()] checks [entries] (default:
    {!Registry.all}) with [probes] (default: {!builtin}).  [quick]
    selects each entry's small sizes — the [dune runtest] profile.
    [?pool] parallelizes the per-solver runs; the report's verdicts do
    not depend on it.

    [?only] restricts the run to the named probes and data phases
    (case-insensitive, of {!names}[ probes]).  Everything else is listed
    in {!Report.problem_report.p_probes_skipped} and its verdict reads
    [None]; skipping ["mutate"] waives the at-least-one-rejection
    requirement.  Raises [Invalid_argument], naming the known probes,
    on an empty selection or an unknown name — before any trial is
    built. *)

val find_entry :
  ?entries:Registry.entry list -> string -> (Registry.entry, string) result
(** Case-insensitive lookup of a registry entry by problem name. *)

val record_trace :
  ?entries:Registry.entry list ->
  seed:int64 ->
  quick:bool ->
  problem:string ->
  origin:int ->
  path:string ->
  unit ->
  (unit, string) result
(** Build the named problem's first trial (at its first quick or full
    size, with the same per-trial seed derivation as {!run}) and record
    the reference solver's run from [origin] as a JSONL transcript at
    [path].  The header pins down (problem, size, trial seed, origin), so
    the file alone suffices to replay. *)

val replay_trace :
  ?entries:Registry.entry list -> path:string -> unit -> (unit, string) result
(** Load a transcript written by {!record_trace}, deterministically
    rebuild its instance from the header, and re-drive the reference
    solver against the recorded events.  [Error] pinpoints the first
    divergence. *)
