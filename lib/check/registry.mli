(** The conformance registry: every problem of [lib/core], packaged
    uniformly for differential checking.

    Each {!entry} knows how to build {e trials} — concrete instances at a
    given size and seed — and each trial exposes the closures behind the
    oracle's data phases and built-in probes ({!Oracle.builtin}):

    - {b differential solving}: run every registered solver over the same
      instance and report per-solver cost statistics plus output
      validity.  Solvers of the same problem may legitimately produce
      {e different} outputs (LCLs admit output freedom); what they must
      agree on is validity under the problem's own checker.
    - {b merge consistency}: the reference solver's {!Vc_measure.Runner}
      statistics must be bit-identical whether the start nodes are
      processed sequentially or fanned out over a {!Vc_exec.Pool} of any
      width.
    - {b cross-model checks}: where a second model implementation exists
      (the CONGEST protocols of Observation 7.4, the Example 7.6
      router), run it and verify its output against the same checker.
    - {b lazy vs. eager worlds}: every solver's {!Vc_model.Probe.result}
      must be bit-identical whether distances are answered by the lazy
      incremental BFS of {!Vc_model.World.of_graph} or by the eager
      full-graph BFS of {!Vc_model.World.of_graph_eager}.
    - {b mutation fuzzing}: perturb a valid output (or its input
      labeling) and classify the checker's reaction — see {!Mutate}.
    - {b record/replay}: record every solver's probe transcript
      ({!Vc_obs.Trace}), round-trip it through its JSONL encoding, and
      re-drive the run against the decoded transcript; the replay must be
      event-for-event and result bit-identical.
    - {b IR vs. closure} (entries with [ir = true]): the problem's
      {!Vc_ir} program must reproduce the reference closure solver's
      full {!Vc_model.Probe.result} — output {e and} cost envelope —
      from every origin, under both the reference interpreter and the
      batched executor, unbudgeted and budgeted alike.

    Heterogeneous problem types are hidden behind monomorphic closures,
    so the oracle iterates over [entry list] without knowing any
    problem's input or output type. *)

module Splitmix = Vc_rng.Splitmix
module Runner = Vc_measure.Runner
module Store = Vc_snap.Store

val builder_version : string
(** The registry's snapshot invalidation token; bumped whenever any
    instance builder's output changes, so stale snapshots become
    structured misses. *)

val store : dir:string -> Store.t
(** A snapshot store rooted at [dir], keyed with {!builder_version}. *)

type solver_outcome = {
  solver : string;
  randomized : bool;
  stats : Runner.stats;
  valid : bool;  (** the assembled output passes the problem's checker *)
}

type probe_summary = {
  pr_solver : string;  (** the reference solver that ran *)
  pr_volume : int;
  pr_distance : int;
  pr_queries : int;
  pr_rand_bits : int;
  pr_aborted : bool;
  pr_output : int;
      (** structural digest of the output, as in
          {!Vc_obs.Trace.Session_close} *)
}
(** Cost vector of one reference-solver run from one origin — the unit
    the serving layer answers [probe] requests with. *)

type trial = {
  t_n : int;  (** node count of the instance *)
  t_source : [ `Built | `Snapshot ];
      (** Whether the instance was built from scratch or decoded from a
          snapshot store hit — byte-identical either way (oracle probe
          ["snap"] is the proof), but the serving tier reports the
          distinction to operators. *)
  run_solvers : ?pool:Vc_exec.Pool.t -> unit -> solver_outcome list;
      (** Run every registered solver from every node of the instance. *)
  probe_origin :
    ?trace:Vc_obs.Trace.sink -> origin:int -> unit -> (probe_summary, string) result;
      (** Run the reference solver from a single origin (the serving
          layer's [probe]/[trace] requests).  Randomness derivation is
          identical to {!run_solvers}, so the summary is a deterministic
          function of the trial's (size, seed, origin). *)
  merge_consistency : widths:int list -> (unit, string) result;
      (** Re-run the reference solver under pools of the given widths and
          compare the stats against the sequential run. *)
  cross_model : (string * (unit -> (unit, string) result)) list;
      (** Named alternative-model executions (e.g. ["congest"]). *)
  lazy_vs_eager : unit -> (unit, string) result;
      (** Run every solver from every origin against both the trial's
          lazy world and an eager twin and compare the full
          {!Vc_model.Probe.result}s. *)
  ir_vs_closure : (unit -> (unit, string) result) option;
      (** [Some] iff the entry has [ir = true]: validate the IR program,
          then from every origin compare the reference closure solver,
          the {!Vc_ir.Exec.run} interpreter and the
          {!Vc_ir.Exec.run_batch} executor — full result records, under
          unlimited, volume-capped and distance-capped budgets. *)
  mutate : Splitmix.t -> Mutate.outcome list;
      (** One fuzzing round: apply each of the entry's mutation kinds
          once, at sites drawn from the given rng. *)
  trace_record : path:string -> header:Vc_obs.Json.t -> origin:int -> (unit, string) result;
      (** Record the reference solver's run from [origin] as a JSONL
          transcript at [path], with [header] on the first line. *)
  trace_replay : events:Vc_obs.Trace.event list -> origin:int -> (unit, string) result;
      (** Re-drive the reference solver from [origin] against a recorded
          transcript; [Error] describes the first divergence. *)
  trace_roundtrip : unit -> (unit, string) result;
      (** Record, JSON-round-trip and replay every solver from every
          origin; results must be bit-identical. *)
}

type entry = {
  name : string;
  family : string;
      (** The graph family the instances are drawn from ("tree", "cycle",
          "cubic", "torus", "d-regular", "expander") — the [--family]
          CLI filters and the [list --json] payload key off it. *)
  radius : int;  (** the problem's checkability radius *)
  sizes : int list;  (** instance sizes for the full profile *)
  quick_sizes : int list;  (** smaller sizes for the [dune runtest] profile *)
  ir : bool;  (** a {!Vc_ir} port of the reference solver exists *)
  make : ?store:Store.t -> size:int -> seed:int64 -> unit -> trial;
      (** Deterministic: the same (size, seed) builds the same trial.
          With [?store], a snapshot hit replaces the instance build with
          an mmap load (identical contents); a miss builds and
          best-effort publishes, so a configured store self-populates. *)
  acquire : ?store:Store.t -> size:int -> seed:int64 -> unit -> int;
      (** Materialize just the instance (no trial assembly, no solver
          closures) and return its node count — the store warm-up /
          benchmarking path.  Same store semantics as [make]. *)
}

val all : unit -> entry list
(** Every problem of [lib/core], in paper order — DegreeParity,
    CycleColoring3, Sinkless, LeafColoring, PromiseLeafColoring (secret
    regime), BalancedTree, Hierarchical-THC(2), Hybrid-THC(2),
    HH-THC(2,3), LeafBitCopy (Example 7.6) — followed by the
    [lib/family] marquee problems, one entry per (family, problem)
    pair: TorusColoring4, RegularColoring4, TorusMatching,
    RegularMatching, RegularMIS, ExpanderMIS, RegularSinkless. *)
