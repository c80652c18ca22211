module Graph = Vc_graph.Graph
module Probe = Vc_model.Probe
module Lcl = Vc_lcl.Lcl
module Splitmix = Vc_rng.Splitmix
module Randomness = Vc_rng.Randomness
module Pool = Vc_exec.Pool

let m_probe_runs = Vc_obs.Metrics.counter "runner.probe_runs"

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

let mean_volume s = if s.runs = 0 then 0.0 else float_of_int s.sum_volume /. float_of_int s.runs

let mean_distance s =
  if s.runs = 0 then 0.0 else float_of_int s.sum_distance /. float_of_int s.runs

let pp_stats ppf s =
  Fmt.pf ppf "runs=%d vol(max=%d mean=%.1f) dist(max=%d mean=%.1f) queries<=%d bits<=%d aborted=%d"
    s.runs s.max_volume (mean_volume s) s.max_distance (mean_distance s) s.max_queries
    s.max_rand_bits s.aborted

let empty =
  {
    runs = 0;
    max_volume = 0;
    sum_volume = 0;
    max_distance = 0;
    sum_distance = 0;
    max_queries = 0;
    max_rand_bits = 0;
    aborted = 0;
  }

let add stats (r : _ Probe.result) =
  {
    runs = stats.runs + 1;
    max_volume = max stats.max_volume r.Probe.volume;
    sum_volume = stats.sum_volume + r.Probe.volume;
    max_distance = max stats.max_distance r.Probe.distance;
    sum_distance = stats.sum_distance + r.Probe.distance;
    max_queries = max stats.max_queries r.Probe.queries;
    max_rand_bits = max stats.max_rand_bits r.Probe.rand_bits;
    aborted = (stats.aborted + if r.Probe.aborted then 1 else 0);
  }

let merge a b =
  {
    runs = a.runs + b.runs;
    max_volume = max a.max_volume b.max_volume;
    sum_volume = a.sum_volume + b.sum_volume;
    max_distance = max a.max_distance b.max_distance;
    sum_distance = a.sum_distance + b.sum_distance;
    max_queries = max a.max_queries b.max_queries;
    max_rand_bits = max a.max_rand_bits b.max_rand_bits;
    aborted = a.aborted + b.aborted;
  }

let measure_seq ~world ~solver ?randomness ?budget ~origins () =
  let stats = ref empty in
  let outputs = ref [] in
  List.iter
    (fun v ->
      Vc_obs.Metrics.incr m_probe_runs;
      let r = Probe.run ~world ?randomness ?budget ~origin:v solver.Lcl.solve in
      stats := add !stats r;
      match r.Probe.output with
      | Some o -> outputs := (v, o) :: !outputs
      | None -> ())
    origins;
  (!stats, List.rev !outputs)

(* Every cost and every output of a probe run is a deterministic function
   of (world, solver, origin, randomness seed), and [merge] is an exact
   integer monoid, so fanning the origins out across domains and folding
   the per-chunk partials in chunk order is bit-identical to the
   sequential left fold.  Each domain works on its own [Randomness.fork]
   because streams memoize mutably (see Vc_rng.Randomness).  Graph-backed
   worlds keep their incremental-BFS scratch in Domain.DLS keyed by node
   count, so across this fan-out each domain reuses one set of scratch
   arrays for every origin instead of allocating per session (see
   Vc_model.World). *)
let measure_par ~pool ~world ~solver ?randomness ?budget ~origins () =
  let fork_key = Domain.DLS.new_key (fun () -> Option.map Randomness.fork randomness) in
  Pool.map_reduce pool
    ~map:(fun v ->
      let randomness = Domain.DLS.get fork_key in
      Vc_obs.Metrics.incr m_probe_runs;
      let r = Probe.run ~world ?randomness ?budget ~origin:v solver.Lcl.solve in
      let out = match r.Probe.output with Some o -> [ (v, o) ] | None -> [] in
      (add empty r, out))
    ~combine:(fun (s1, o1) (s2, o2) -> (merge s1 s2, o1 @ o2))
    ~init:(empty, []) origins

type ('i, 'o) ir_target = {
  ir_spec : ('i, 'o) Vc_ir.Ir.spec;
  ir_graph : Graph.t;
  ir_input : Graph.node -> 'i;
}

(* The IR fast path.  Oracle probe [ir] guarantees the batched executor
   produces the exact per-origin result record the closure solver would,
   so folding the batch with [add] in origin order reproduces the
   closure path's stats and outputs bit for bit — while thousands of
   origins ride one flat loop over the CSR arrays instead of re-entering
   a closure per query. *)
let measure_ir ~world ~(ir : _ ir_target) ?budget ?pool ~origins () =
  let origins = Array.of_list origins in
  Vc_obs.Metrics.add m_probe_runs (Array.length origins);
  let results =
    Vc_ir.Exec.run_batch ~claimed_n:world.Vc_model.World.n ?budget ?pool ir.ir_spec
      ~graph:ir.ir_graph ~input:ir.ir_input ~origins
  in
  let stats = ref empty in
  let outputs = ref [] in
  Array.iteri
    (fun i (r : _ Probe.result) ->
      stats := add !stats r;
      match r.Probe.output with
      | Some o -> outputs := (origins.(i), o) :: !outputs
      | None -> ())
    results;
  (!stats, List.rev !outputs)

let measure ~world ~solver ?randomness ?budget ?pool ?ir ~origins () =
  match (ir, randomness) with
  | Some ir, None -> measure_ir ~world ~ir ?budget ?pool ~origins ()
  | _ -> (
      match pool with
      | Some pool when Pool.domains pool > 1 ->
          measure_par ~pool ~world ~solver ?randomness ?budget ~origins ()
      | Some _ | None -> measure_seq ~world ~solver ?randomness ?budget ~origins ())

let solve_and_check ~world ~problem ~graph ~input ~solver ?randomness ?pool ?ir () =
  let origins = Graph.nodes graph in
  let stats, outputs = measure ~world ~solver ?randomness ?pool ?ir ~origins () in
  let tbl = Hashtbl.create (Graph.n graph) in
  List.iter (fun (v, o) -> Hashtbl.replace tbl v o) outputs;
  let valid =
    List.length outputs = Graph.n graph
    && Lcl.is_valid problem graph ~input ~output:(Hashtbl.find tbl)
  in
  (stats, valid)

let sample_origins g ~count ~seed =
  if count <= 0 then invalid_arg "Runner.sample_origins: count must be positive";
  let n = Graph.n g in
  if count >= n then Graph.nodes g
  else begin
    (* Partial Fisher-Yates: exactly [count] draws, no rejection loop
       even when [count] approaches [n]. *)
    let rng = Splitmix.create seed in
    let nodes = Array.init n Fun.id in
    for i = 0 to count - 1 do
      let j = i + Splitmix.int rng ~bound:(n - i) in
      let tmp = nodes.(i) in
      nodes.(i) <- nodes.(j);
      nodes.(j) <- tmp
    done;
    Array.to_list (Array.sub nodes 0 count)
  end
