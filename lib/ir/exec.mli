(** The two IR executors.

    {!solver}/{!run} is the {e reference} semantics: one origin,
    interpreted through {!Vc_model.Probe.ctx}, so costs are accounted by
    the model executor itself.  {!run_batch_into} is the {e fast} path:
    many origins through one flat loop over the CSR arrays with
    epoch-stamped scratch reused across the batch (and pooled per
    domain, so a {!Vc_exec.Pool} fan-out reuses state too), results
    written into a caller-provided {!sink} of flat arrays — zero
    per-origin allocation, which is what the bench gate measures.
    {!run_batch} wraps it when per-origin result records are the
    convenient shape.  Oracle probe [ir] asserts reference and batched
    agree bit for bit (outputs and cost envelopes) on the registry
    corpus; the qcheck properties in [test/test_ir.ml] assert it on
    random programs. *)

val solver : ('i, 'o) Ir.spec -> 'i Vc_model.Probe.ctx -> 'o
(** The interpreter as a plain algorithm, usable anywhere a closure
    solver is.  Enforces the {!Ir.step_cap}; does {e not} apply the
    program's declared budget (the surrounding [Probe.run] owns budget
    enforcement — use {!run} to get the intersection). *)

val run :
  ?budget:Vc_model.Probe.budget ->
  ('i, 'o) Ir.spec ->
  world:'i Vc_model.World.t ->
  origin:Vc_graph.Graph.node ->
  'o Vc_model.Probe.result
(** Reference execution under {!Ir.effective_budget}. *)

type 'o sink = {
  k_out : 'o array;  (** output per origin, valid iff [not k_aborted.(i)] *)
  k_volume : int array;
  k_distance : int array;
  k_queries : int array;
  k_aborted : bool array;
}
(** Struct-of-arrays result buffers for {!run_batch_into}: four unboxed
    rows plus the output row, so a batch writes no per-origin heap
    objects.  Reusable across batches — only the first
    [Array.length origins] slots are written, and stale [k_out] entries
    hide behind their [k_aborted] flag. *)

val sink : none:'o -> int -> 'o sink
(** A fresh sink of the given capacity, its output row filled with the
    [none] placeholder.
    @raise Invalid_argument on a negative capacity. *)

val run_batch_into :
  ?claimed_n:int ->
  ?budget:Vc_model.Probe.budget ->
  ?pool:Vc_exec.Pool.t ->
  ('i, 'o) Ir.spec ->
  graph:Vc_graph.Graph.t ->
  input:(Vc_graph.Graph.node -> 'i) ->
  origins:Vc_graph.Graph.node array ->
  sink:'o sink ->
  unit
(** Batched execution into the sink's rows, slot [i] for origin [i] —
    the allocation-free core.  Parameters as in {!run_batch}.
    @raise Invalid_argument if the sink is shorter than the batch. *)

val run_batch :
  ?claimed_n:int ->
  ?budget:Vc_model.Probe.budget ->
  ?pool:Vc_exec.Pool.t ->
  ('i, 'o) Ir.spec ->
  graph:Vc_graph.Graph.t ->
  input:(Vc_graph.Graph.node -> 'i) ->
  origins:Vc_graph.Graph.node array ->
  'o Vc_model.Probe.result array
(** Batched execution; results in origin order, each the exact record
    {!run} would produce.  [claimed_n] is the [n] announced to programs
    and the step cap (defaults to [Graph.n graph]; pass the world's
    claimed [n] when they differ).  With a [pool], origins are cut into
    deterministic contiguous chunks, so output is scheduling-invariant.
    [input] and the spec's [obs]/[fns] must be pure and thread-safe. *)
