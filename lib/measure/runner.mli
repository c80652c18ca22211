(** Experiment runner: execute a solver over many start nodes, collect
    DIST/VOL statistics (Definitions 2.1–2.2 take the supremum over
    start nodes), and check the assembled output with the problem's own
    local checker.

    Passing [?pool] fans the start nodes out across the pool's domains.
    Because each probe run opens its own {!Vc_model.World.session} and
    works on a domain-local {!Vc_rng.Randomness.fork}, and {!merge} is an
    exact integer monoid, the parallel path returns stats and outputs
    {e bit-identical} to the sequential path — the world merely has to
    honour the shareability contract documented in {!Vc_model.World}.
    Graph-backed worlds additionally reuse one set of domain-local BFS
    scratch arrays across the whole origin fan-out (an O(1) epoch bump
    per session, no per-origin allocation). *)

module Graph = Vc_graph.Graph
module Lcl = Vc_lcl.Lcl

type stats = {
  runs : int;
  max_volume : int;
  sum_volume : int;
  max_distance : int;
  sum_distance : int;
  max_queries : int;
  max_rand_bits : int;
  aborted : int;
}
(** All-integer cost summary of a batch of runs.  Keeping sums (not
    means) makes {!merge} exact, so merge order can never leak into
    results. *)

val empty : stats
(** The {!merge} identity. *)

val add : stats -> 'o Vc_model.Probe.result -> stats
(** Fold one probe run into the summary. *)

val merge : stats -> stats -> stats
(** Associative, commutative combination of two disjoint batches, with
    identity {!empty}; used to fold per-domain partial stats. *)

val pp_stats : Format.formatter -> stats -> unit

type ('i, 'o) ir_target = {
  ir_spec : ('i, 'o) Vc_ir.Ir.spec;
  ir_graph : Graph.t;
  ir_input : Graph.node -> 'i;
}
(** An IR port of the measured solver, enabling the batched fast path.
    The spec must be a faithful port (oracle probe [ir]'s guarantee): the
    stats and outputs {!measure} returns through it are bit-identical to
    the closure path's.  The graph and input must be the ones backing
    [world], whose claimed [n] is announced to the program. *)

val measure :
  world:'i Vc_model.World.t ->
  solver:('i, 'o) Lcl.solver ->
  ?randomness:Vc_rng.Randomness.t ->
  ?budget:Vc_model.Probe.budget ->
  ?pool:Vc_exec.Pool.t ->
  ?ir:('i, 'o) ir_target ->
  origins:Graph.node list ->
  unit ->
  stats * (Graph.node * 'o) list
(** Run the solver from each origin; aborted runs contribute their cost
    but no output.  Outputs are in origin order.  With [?pool] the runs
    are distributed over the pool's domains (the world must be
    domain-shareable); a pool of width 1 takes the sequential path.

    With [?ir] (and no [?randomness] — IR programs are deterministic),
    the origins ride {!Vc_ir.Exec.run_batch} instead of per-origin
    closure interpretation: same stats and outputs, bit for bit, minus
    the per-origin dispatch cost.  The program's declared budget should
    be unlimited (as all shipped programs') so the effective budget is
    exactly [?budget], matching the closure path. *)

val solve_and_check :
  world:'i Vc_model.World.t ->
  problem:('i, 'o) Lcl.t ->
  graph:Graph.t ->
  input:(Graph.node -> 'i) ->
  solver:('i, 'o) Lcl.solver ->
  ?randomness:Vc_rng.Randomness.t ->
  ?pool:Vc_exec.Pool.t ->
  ?ir:('i, 'o) ir_target ->
  unit ->
  stats * bool
(** Run from {e every} node, assemble the full output labeling, and
    report whether it is globally valid.  [?ir] as in {!measure}. *)

val sample_origins : Graph.t -> count:int -> seed:int64 -> Graph.node list
(** Deterministic sample of [count] distinct start nodes by partial
    Fisher–Yates (all nodes when [count >= n]).
    @raise Invalid_argument if [count <= 0]. *)
