(* Benchmark harness.

   Two layers, as promised in DESIGN.md:

   1. the reproduction experiments (vc_measure.Experiments): one report
      per paper table/figure, printing measured cost curves and their
      fitted growth classes against the paper's Θ claims;

   2. Bechamel wall-clock microbenchmarks: one Test.make per paper
      artifact, timing a representative solver execution;

   3. lazy-vs-eager world microbenchmarks (`world-session/*`,
      `probe-hot-path/*`): the before/after evidence that a probe run on
      a lazy world costs Θ(ball), not Θ(n);

   4. batched-IR microbenchmarks (`batched-ir/*`): per-origin throughput
      of Vc_ir.Exec.run_batch against the per-origin closure path, gated
      at >= 10x on the probe-bound rows.

   `dune exec bench/main.exe` runs all three; pass `--quick` (or set
   VOLCOMP_QUICK=1) for the shortened ladders, `--deep` to extend each
   ladder past the standard profile, `--no-wallclock` to skip the
   Bechamel pass, `--micro` to run only layer 3 (the bench-smoke mode),
   `--family SUBSTR` to restrict the report pass to the graph-family
   ladders whose title contains SUBSTR (case-insensitive),
   `--metrics` to collect and print the Vc_obs counters for the whole
   run, `-j N` (or VOLCOMP_JOBS) to size the domain pool, and
   `--json PATH` to also record everything machine-readably (including
   a sequential-vs-parallel speedup entry with the detected core count,
   the serving-layer rows, the instrumentation-overhead row and a
   metrics snapshot).  Exits non-zero when any report has a [MISMATCH]
   fitted class, a world-session microbenchmark falls below a 10x
   lazy-vs-eager speedup, the parallel speedup entry loses to the
   sequential run on a multi-core box (reported but not gated on 1
   core), or the metrics-disabled hot path exceeds its 5% overhead
   gate, so CI can gate on the reproduction, the cost model and the
   observability layer at once. *)

open Bechamel

module Graph = Vc_graph.Graph
module Builder = Vc_graph.Builder
module TL = Vc_graph.Tree_labels
module Probe = Vc_model.Probe
module World = Vc_model.World
module Lcl = Vc_lcl.Lcl
module Randomness = Vc_rng.Randomness
module LC = Volcomp.Leaf_coloring
module BT = Volcomp.Balanced_tree
module H = Volcomp.Hierarchical_thc
module Hy = Volcomp.Hybrid_thc
module HH = Volcomp.Hh_thc
module Adv = Volcomp.Adversary_leaf
module CC = Volcomp.Cycle_coloring
module Gap = Volcomp.Gap_example
module Trivial = Volcomp.Trivial_lcl
module Disjointness = Vc_commcc.Disjointness
module Experiments = Vc_measure.Experiments
module Runner = Vc_measure.Runner
module Fit = Vc_measure.Fit
module Pool = Vc_exec.Pool

let title_contains hay needle =
  let hay = String.lowercase_ascii hay and needle = String.lowercase_ascii needle in
  let rec go i =
    i + String.length needle <= String.length hay
    && (String.sub hay i (String.length needle) = needle || go (i + 1))
  in
  go 0
module Ir_exec = Vc_ir.Exec
module Ir_lib = Vc_ir.Library
module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics

let run_solver ~world ?randomness ~origin (solver : (_, _) Lcl.solver) () =
  let r = Probe.run ~world ?randomness ~origin solver.Lcl.solve in
  assert (not r.Probe.aborted)

(* One wall-clock microbenchmark per paper artifact. *)
let wallclock_tests () =
  let t1_leaf =
    let inst = LC.hard_distance_instance ~depth:10 ~leaf_color:TL.Blue in
    let world = LC.world inst in
    let rand = Randomness.create ~seed:1L ~n:(Graph.n inst.LC.graph) () in
    Test.make ~name:"table1/leafcoloring/rwtoleaf"
      (Staged.stage (run_solver ~world ~randomness:rand ~origin:0 LC.solve_random_walk))
  in
  let t1_bt =
    let disj = Disjointness.random_promise ~n:64 ~intersecting:false ~seed:2L in
    let inst = BT.embed_disjointness disj in
    let world = BT.world inst in
    Test.make ~name:"table1/balancedtree/descend"
      (Staged.stage (run_solver ~world ~origin:0 BT.solve_distance))
  in
  let t1_hthc2 =
    let inst, hot = H.hard_instance ~k:2 ~target_n:8_000 ~seed:3L in
    let world = H.world inst in
    let rand = Randomness.create ~seed:4L ~n:(Graph.n (H.graph inst)) () in
    Test.make ~name:"table1/hthc2/waypoint"
      (Staged.stage (run_solver ~world ~randomness:rand ~origin:hot (H.solve_waypoint ~k:2 ())))
  in
  let t1_hthc3 =
    let inst, hot = H.hard_instance ~k:3 ~target_n:8_000 ~seed:5L in
    let world = H.world inst in
    Test.make ~name:"table1/hthc3/deterministic"
      (Staged.stage (run_solver ~world ~origin:hot (H.solve_deterministic ~k:3)))
  in
  let t1_hybrid =
    let inst, hot = Hy.hard_instance ~k:2 ~target_n:8_000 ~seed:6L in
    let world = Hy.world inst in
    Test.make ~name:"table1/hybrid/distance"
      (Staged.stage (run_solver ~world ~origin:hot (Hy.solve_distance ~k:2)))
  in
  let t1_hh =
    let inst = HH.uniform_instance ~k:2 ~l:3 ~size_hint:4_000 ~seed:7L in
    let world = HH.world inst in
    Test.make ~name:"table1/hhthc/dispatch"
      (Staged.stage (run_solver ~world ~origin:0 (HH.solve_distance ~k:2 ~l:3)))
  in
  let fig12 =
    let g = Builder.cycle 65536 in
    let world = CC.world g in
    Test.make ~name:"fig1-2/cycle-coloring"
      (Staged.stage (run_solver ~world ~origin:0 CC.solve))
  in
  let fig8 =
    Test.make ~name:"fig8/adversary-duel"
      (Staged.stage (fun () -> ignore (Adv.duel ~claimed_n:1200 LC.solve_distance)))
  in
  let ex76_query =
    let inst = Gap.make ~depth:9 ~seed:8L in
    let world = Gap.world inst in
    let leaf = (Graph.n inst.Gap.graph / 2) - 1 in
    Test.make ~name:"ex7.6/query-climb"
      (Staged.stage (run_solver ~world ~origin:leaf Gap.solve))
  in
  let ex76_congest =
    let inst = Gap.make ~depth:6 ~seed:9L in
    Test.make ~name:"ex7.6/congest-route"
      (Staged.stage (fun () -> ignore (Gap.run_congest inst ~bandwidth:64)))
  in
  let obs74_congest_bt =
    let inst = BT.broken_pair_instance ~depth:7 ~break:31 in
    Test.make ~name:"obs7.4/balancedtree-congest"
      (Staged.stage (fun () -> ignore (Volcomp.Balanced_tree_congest.run inst ())))
  in
  let rem23_local =
    let inst = LC.random_instance ~n:201 ~seed:10L in
    Test.make ~name:"rem2.3/local-gather"
      (Staged.stage (fun () ->
           ignore
             (Vc_model.Local.gather ~graph:inst.LC.graph ~input:(LC.input inst) ~rounds:6)))
  in
  let q73_sinkless =
    let g = Volcomp.Sinkless.random_cubic ~n:120 ~seed:11L in
    let world = Volcomp.Sinkless.world g in
    Test.make ~name:"q7.3/sinkless-global"
      (Staged.stage (run_solver ~world ~origin:0 Volcomp.Sinkless.solve_global))
  in
  Test.make_grouped ~name:"volcomp"
    [
      t1_leaf; t1_bt; t1_hthc2; t1_hthc3; t1_hybrid; t1_hh; fig12; fig8; ex76_query;
      ex76_congest; obs74_congest_bt; rem23_local; q73_sinkless;
    ]

let run_wallclock () =
  let tests = wallclock_tests () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Bechamel.Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) () in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | Some [] | None -> nan
        in
        (name, ns) :: acc)
      results []
  in
  let rows = List.sort compare rows in
  Fmt.pr "@.== Wall-clock microbenchmarks (one per paper artifact) ==@.";
  List.iter (fun (name, ns) -> Fmt.pr "  %-40s %12.0f ns/run@." name ns) rows;
  rows

(* --- sequential vs parallel speedup --------------------------------------- *)

type speedup = {
  workload : string;
  sp_domains : int;
  sp_cores : int;  (* detected cores: the gate is meaningless on 1 *)
  seq_seconds : float;
  par_seconds : float;
  speedup : float;
}

(* A parallel run must not lose to the sequential one — but only where
   parallelism is physically possible.  On a 1-core box (CI containers)
   the criterion is reported and skipped, not gated. *)
let speedup_gated s = s.sp_cores >= 2 && s.sp_domains >= 2
let speedup_ok s = (not (speedup_gated s)) || s.speedup >= 1.0

(* Full-graph solve_and_check: n independent probe runs, each paying a
   session BFS — the embarrassingly parallel hot loop of every report. *)
let measure_speedup ~pool ~quick =
  let depth = if quick then 10 else 12 in
  let inst = LC.hard_distance_instance ~depth ~leaf_color:TL.Blue in
  let world = LC.world inst in
  let solve pool =
    Runner.solve_and_check ~world ~problem:LC.problem ~graph:inst.LC.graph
      ~input:(LC.input inst) ~solver:LC.solve_distance ?pool ()
  in
  let time pool =
    let t0 = Unix.gettimeofday () in
    let stats, valid = solve pool in
    let dt = Unix.gettimeofday () -. t0 in
    (dt, stats, valid)
  in
  let seq_seconds, seq_stats, seq_valid = time None in
  let par_seconds, par_stats, par_valid = time pool in
  if not (seq_valid && par_valid && seq_stats = par_stats) then
    failwith "speedup workload: parallel run diverged from sequential run";
  let sp_domains = match pool with Some p -> Pool.domains p | None -> 1 in
  {
    workload = Printf.sprintf "leafcoloring/solve_and_check/depth-%d" depth;
    sp_domains;
    sp_cores = Domain.recommended_domain_count ();
    seq_seconds;
    par_seconds;
    speedup = seq_seconds /. par_seconds;
  }

(* --- lazy vs eager world microbenchmarks ----------------------------------- *)

type micro_row = {
  m_name : string;
  m_lazy_ns : float;
  m_eager_ns : float option;  (* None for rows without an eager twin *)
  m_gate : bool;
      (* enforce the >= 10x lazy-vs-eager bar; off for control rows whose
         solver explores nearly the whole graph, where the two worlds
         must merely tie *)
}

let micro_speedup r = Option.map (fun eager -> eager /. r.m_lazy_ns) r.m_eager_ns

(* Adaptive wall-clock timing: after one warm-up call, grow the
   repetition count geometrically until a batch takes >= 50ms, then
   report ns per repetition.  Bechamel would be overkill here — these
   rows only need enough resolution to witness an order-of-magnitude
   gap. *)
let time_ns f =
  f ();
  let rec go reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 0.05 then dt *. 1e9 /. float_of_int reps else go (reps * 4)
  in
  go 1

(* The before/after evidence for the lazy-world rewrite.  Each probe run
   opens a fresh session; on an eager world that costs a full-graph BFS,
   on a lazy world only the ball the solver actually explores.  Sizes
   are pinned at the largest quick-ladder rungs so the quick and full
   profiles measure the same workloads. *)
let run_micro () =
  let probe ~world ?randomness ~origin (solver : (_, _) Lcl.solver) () =
    let r = Probe.run ~world ?randomness ~origin solver.Lcl.solve in
    assert (not r.Probe.aborted)
  in
  let cycle =
    (* The acceptance row: Cole–Vishkin touches a log*-sized ball of the
       largest quick-ladder cycle, so per-session cost is the session
       setup itself. *)
    let n = 65536 in
    let g = Builder.cycle n in
    let lazy_world = CC.world g in
    let eager_world = World.of_graph_eager g ~input:(fun _ -> ()) in
    {
      m_name = Printf.sprintf "world-session/cycle-coloring-%d" n;
      m_lazy_ns = time_ns (probe ~world:lazy_world ~origin:0 CC.solve);
      m_eager_ns = Some (time_ns (probe ~world:eager_world ~origin:0 CC.solve));
      m_gate = true;
    }
  in
  let parity =
    (* Class A's DegreeParity (Figures 1–2): volume and distance are
       Θ(1), so the whole probe run is session setup — the purest
       measurement of per-session cost on a 2^16-node tree. *)
    let depth = 15 in
    let g = Builder.complete_binary_tree ~depth in
    let lazy_world = Trivial.world g in
    let eager_world = World.of_graph_eager g ~input:(fun _ -> ()) in
    {
      m_name = Printf.sprintf "world-session/degree-parity-%d" (Graph.n g);
      m_lazy_ns = time_ns (probe ~world:lazy_world ~origin:0 Trivial.solve);
      m_eager_ns = Some (time_ns (probe ~world:eager_world ~origin:0 Trivial.solve));
      m_gate = true;
    }
  in
  let leaf_control =
    (* Control: RWtoLeaf's distance solver explores nearly the whole
       hard instance, so laziness cannot win — it must only not lose. *)
    let inst = LC.hard_distance_instance ~depth:10 ~leaf_color:TL.Blue in
    let lazy_world = LC.world inst in
    let eager_world = World.of_graph_eager inst.LC.graph ~input:(LC.input inst) in
    {
      m_name = "world-session/leafcoloring-depth-10";
      m_lazy_ns = time_ns (probe ~world:lazy_world ~origin:0 LC.solve_distance);
      m_eager_ns = Some (time_ns (probe ~world:eager_world ~origin:0 LC.solve_distance));
      m_gate = false;
    }
  in
  let hot_path =
    let steps = 256 in
    let g = Builder.cycle 65536 in
    let world = CC.world g in
    (* March [steps] hops around the cycle, never backtracking, so every
       query lands on a fresh node: a pure exercise of the query ->
       admit -> incremental-BFS path with no solver logic on top. *)
    let walk ctx =
      let prev = ref (-1) in
      let at = ref (Probe.origin ctx) in
      for _ = 1 to steps do
        let a = Probe.query ctx ~at:!at ~port:1 in
        let next = if a <> !prev then a else Probe.query ctx ~at:!at ~port:2 in
        prev := !at;
        at := next
      done;
      !at
    in
    {
      m_name = Printf.sprintf "probe-hot-path/cycle-walk-%d" steps;
      m_lazy_ns = time_ns (fun () -> ignore (Probe.run ~world ~origin:0 walk : Graph.node Probe.result));
      m_eager_ns = None;
      m_gate = false;
    }
  in
  [ cycle; parity; leaf_control; hot_path ]

let pp_micro rows =
  Fmt.pr "@.== Lazy vs eager world microbenchmarks ==@.";
  List.iter
    (fun r ->
      match (r.m_eager_ns, micro_speedup r) with
      | Some eager, Some s ->
          Fmt.pr "  %-38s lazy %10.0f ns/run   eager %12.0f ns/run   speedup %8.1fx%s@." r.m_name
            r.m_lazy_ns eager s
            (if r.m_gate then "" else "   (solver-bound control)")
      | _ -> Fmt.pr "  %-38s lazy %10.0f ns/run@." r.m_name r.m_lazy_ns)
    rows

let micro_ok rows =
  List.for_all
    (fun r ->
      if not r.m_gate then true
      else match micro_speedup r with Some s -> s >= 10.0 | None -> true)
    rows

(* --- batched-IR vs closure microbenchmarks ---------------------------------- *)

type ir_row = {
  i_name : string;
  i_batched_ns : float;  (* Vc_ir.Exec.run_batch, ns per origin *)
  i_closure_ns : float;  (* one Probe.run per origin, ns per origin *)
  i_gate : bool;
      (* enforce the >= 10x batched-vs-closure bar; off for control rows
         whose solver is ball-bound (the executor pays the same BFS the
         closure does, so batching can only shave dispatch) *)
}

let ir_speedup r = r.i_closure_ns /. r.i_batched_ns

(* The perf evidence for the IR port: on probe-bound problems — O(1) or
   O(log* n) queries per origin, so the closure path is dominated by
   per-origin session setup, closure dispatch and allocation — the
   allocation-free executor must clear 10x.  Both sides run the
   registry-checked oracle pairs (oracle probe [ir] proves them result-identical),
   so this is a pure same-answer throughput comparison: one
   [run_batch_into] over a sink versus one [Probe.run] per origin. *)
let ir_rounds = 7

let run_ir_micro () =
  let row ~name ~gate ~none spec ~graph ~input ~world ~(solver : (_, _) Lcl.solver) ~count =
    let origins = Array.of_list (Runner.sample_origins graph ~count ~seed:7L) in
    let snk = Ir_exec.sink ~none (Array.length origins) in
    let batched () = Ir_exec.run_batch_into spec ~graph ~input ~origins ~sink:snk in
    let closure () =
      Array.iter
        (fun v -> ignore (Probe.run ~world ~origin:v solver.Lcl.solve : _ Probe.result))
        origins
    in
    let k = float_of_int (Array.length origins) in
    (* Min-of-[ir_rounds] per side, the sides interleaved in alternating
       order: the min of repeated >= 50ms windows discards GC pauses and
       scheduler interference, and interleaving lets both sides sample the
       same quiet stretches of a busy host.  (Min-of-3 timed one side
       after the other read 7.3x-15.8x on one ~11x row.) *)
    let b = ref infinity and c = ref infinity in
    let time_b () = b := Float.min !b (time_ns batched)
    and time_c () = c := Float.min !c (time_ns closure) in
    for i = 0 to ir_rounds - 1 do
      if i mod 2 = 0 then (time_b (); time_c ()) else (time_c (); time_b ())
    done;
    { i_name = name; i_batched_ns = !b /. k; i_closure_ns = !c /. k; i_gate = gate }
  in
  let parity =
    let g = Builder.complete_binary_tree ~depth:15 in
    row
      ~name:(Printf.sprintf "batched-ir/degree-parity-%d" (Graph.n g))
      ~gate:true ~none:Trivial.Even Ir_lib.degree_parity ~graph:g
      ~input:(fun _ -> ())
      ~world:(Trivial.world g) ~solver:Trivial.solve ~count:65535
  in
  let cycle =
    let n = 65536 in
    let g = Builder.cycle n in
    row
      ~name:(Printf.sprintf "batched-ir/cycle-coloring-%d" n)
      ~gate:true ~none:0 (Ir_lib.cycle_coloring ~n) ~graph:g
      ~input:(fun _ -> ())
      ~world:(CC.world g) ~solver:CC.solve ~count:n
  in
  let status =
    let inst = LC.random_instance ~n:65535 ~seed:1L in
    row ~name:"batched-ir/probe-tree-status-65535" ~gate:false ~none:TL.Internal
      Ir_lib.probe_tree_status ~graph:inst.LC.graph ~input:(LC.input inst)
      ~world:(LC.world inst) ~solver:Ir_lib.status_solver ~count:16384
  in
  let leaf_control =
    let inst = LC.random_instance ~n:2047 ~seed:1L in
    row ~name:"batched-ir/leaf-coloring-2047" ~gate:false ~none:TL.Red Ir_lib.leaf_coloring
      ~graph:inst.LC.graph ~input:(LC.input inst) ~world:(LC.world inst)
      ~solver:LC.solve_distance ~count:256
  in
  [ parity; cycle; status; leaf_control ]

let pp_ir_micro rows =
  Fmt.pr "@.== Batched-IR vs closure microbenchmarks ==@.";
  List.iter
    (fun r ->
      Fmt.pr "  %-38s batched %8.0f ns/origin   closure %10.0f ns/origin   speedup %8.1fx%s@."
        r.i_name r.i_batched_ns r.i_closure_ns (ir_speedup r)
        (if r.i_gate then "" else "   (ball-bound control)"))
    rows

let ir_micro_ok rows = List.for_all (fun r -> (not r.i_gate) || ir_speedup r >= 10.0) rows

let ir_micro_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.String r.i_name);
             ("batched_ns", Json.Float r.i_batched_ns);
             ("closure_ns", Json.Float r.i_closure_ns);
             ("speedup", Json.Float (ir_speedup r));
             ("gated", Json.Bool r.i_gate);
           ])
       rows)

(* --- serving-layer microbenchmarks ------------------------------------------- *)

type serve_row = { sv_name : string; sv_ns : float }

(* Steady-state cost of one served request, without the socket: the
   warm-cache row is a cache hit plus one reference probe run plus the
   payload encode (the daemon's per-request compute), the codec row is
   encode → frame → incremental decode → parse of a representative
   request (the pure protocol overhead a request pays on top). *)
let run_serve_micro () =
  let module P = Vc_serve.Protocol in
  let entries = Vc_check.Registry.all () in
  let handler = Vc_serve.Handler.create ~entries () in
  let e = List.hd entries in
  let size = List.fold_left min (List.hd e.Vc_check.Registry.quick_sizes) e.Vc_check.Registry.quick_sizes in
  let problem = e.Vc_check.Registry.name in
  let probe_q = P.Probe { problem; size; seed = 1L; origin = 0 } in
  (match Vc_serve.Handler.handle handler probe_q with
  | Ok _ -> ()
  | Error (_, msg) -> failwith ("serve micro warm-up: " ^ msg));
  let warm =
    {
      sv_name = Printf.sprintf "serve/probe-warm-cache/%s" problem;
      sv_ns =
        time_ns (fun () ->
            match Vc_serve.Handler.handle handler probe_q with
            | Ok _ -> ()
            | Error _ -> assert false);
    }
  in
  let req = { P.id = 1; deadline_ms = Some 1000; query = probe_q } in
  let codec =
    {
      sv_name = "serve/request-codec";
      sv_ns =
        time_ns (fun () ->
            let wire = P.frame (Json.to_string (P.request_to_json req)) in
            let dec = P.decoder () in
            P.feed dec (Bytes.of_string wire) (String.length wire);
            match P.next_frame dec with
            | Ok (Some body) -> (
                match Result.bind (Json.parse body) P.request_of_json with
                | Ok _ -> ()
                | Error _ -> assert false)
            | _ -> assert false);
    }
  in
  [ warm; codec ]

let pp_serve rows =
  Fmt.pr "@.== Serving-layer microbenchmarks ==@.";
  List.iter (fun r -> Fmt.pr "  %-38s %10.0f ns/request@." r.sv_name r.sv_ns) rows

let serve_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj [ ("name", Json.String r.sv_name); ("ns_per_request", Json.Float r.sv_ns) ])
       rows)

(* --- snapshot-load vs cold-build microbenchmarks ----------------------------- *)

type snap_row = {
  sn_name : string;
  sn_build_ns : float;  (* cold Registry.make, no store: full instance build *)
  sn_load_ns : float;  (* Registry.make against a warm store: one mmap load *)
  sn_bytes : int;  (* on-disk snapshot size *)
}

let snap_gate = 10.0
let snap_speedup r = r.sn_build_ns /. r.sn_load_ns
let snap_ok rows = List.for_all (fun r -> snap_speedup r >= snap_gate) rows

(* The perf evidence for the snapshot tier: warming a session from the
   store must beat building the instance from scratch by >= 10x on the
   two largest ladder sizes of each benched problem.  Both paths go
   through the same [Registry.make] entry point (oracle probe [snap] proves
   them byte-identical), so this is a pure same-answer cost comparison:
   graph construction + labelling versus one [Unix.map_file] plus a
   header checksum — the load side is O(1) in the instance, which is
   the whole point. *)
let run_snap_micro ~quick =
  let module R = Vc_check.Registry in
  let entry name = List.find (fun (e : R.entry) -> e.R.name = name) (R.all ()) in
  let row (e : R.entry) ~size =
    let dir = Filename.temp_file "volcomp-snapbench" "" in
    Sys.remove dir;
    let store = R.store ~dir in
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (R.Store.files store);
        try Unix.rmdir dir with Unix.Unix_error _ -> ())
      (fun () ->
        let seed = 42L in
        (* publish once so the timed path below is a pure store hit *)
        ignore (e.R.acquire ~store ~size ~seed () : int);
        let bytes =
          List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 (R.Store.files store)
        in
        let min3 f = Float.min (time_ns f) (Float.min (time_ns f) (time_ns f)) in
        let build () = ignore (e.R.make ~size ~seed () : R.trial) in
        let load () =
          let t = e.R.make ~store ~size ~seed () in
          assert (t.R.t_source = `Snapshot)
        in
        {
          sn_name = Printf.sprintf "snap/%s-%d" e.R.name size;
          sn_build_ns = min3 build;
          sn_load_ns = min3 load;
          sn_bytes = bytes;
        })
  in
  (* the two largest sizes of each problem's bench ladder; --quick drops
     rungs so the smoke run stays fast without leaving the regime where
     building dominates loading — LeafColoring below 4095 brushes the
     gate on a loaded single-CPU box, so quick starts there *)
  let cycle_sizes = if quick then [ 1 lsl 15; 1 lsl 16 ] else [ 1 lsl 17; 1 lsl 18 ] in
  let leaf_sizes = if quick then [ 4095; 8191 ] else [ 8191; 16383 ] in
  List.map (fun size -> row (entry "CycleColoring3") ~size) cycle_sizes
  @ List.map (fun size -> row (entry "LeafColoring") ~size) leaf_sizes

let pp_snap rows =
  Fmt.pr "@.== Snapshot-load vs cold-build microbenchmarks (gate %.0fx) ==@." snap_gate;
  List.iter
    (fun r ->
      Fmt.pr "  %-38s build %11.0f ns   load %9.0f ns   %9d bytes   speedup %8.1fx   [%s]@."
        r.sn_name r.sn_build_ns r.sn_load_ns r.sn_bytes (snap_speedup r)
        (if snap_speedup r >= snap_gate then "ok" else "FAIL"))
    rows

let snap_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("name", Json.String r.sn_name);
             ("build_ns", Json.Float r.sn_build_ns);
             ("load_ns", Json.Float r.sn_load_ns);
             ("bytes", Json.Int r.sn_bytes);
             ("speedup", Json.Float (snap_speedup r));
             ("ok", Json.Bool (snap_speedup r >= snap_gate));
           ])
       rows)

(* --- session re-warm through the serving layer -------------------------------- *)

type rewarm_row = {
  rw_problem : string;
  rw_size : int;
  rw_build_ns : float;  (* fresh handler, no store: the warm rebuilds *)
  rw_snap_ns : float;  (* fresh handler over a warm store: snapshot load *)
}

(* What a respawned shard worker pays per warm-ledger entry: a fresh
   handler's first [Warm] of the session.  The same build-vs-load
   comparison as the snap rows, one layer up — through
   [Handler.handle] — so it carries the cache and payload overhead a
   worker actually sees.  Each sample needs a fresh handler (a repeat
   window would hit the session cache), so this is single-shot wall
   timing, best of 5.  Report-only: the 10x gate lives on the snap
   rows, and the fork-level version is asserted end to end by
   @shard-smoke and @snap-smoke. *)
let run_rewarm_micro ~quick =
  let module R = Vc_check.Registry in
  let module Handler = Vc_serve.Handler in
  let module Protocol = Vc_serve.Protocol in
  let problem = "CycleColoring3" in
  let size = if quick then 1 lsl 15 else 1 lsl 17 in
  let seed = 42L in
  let dir = Filename.temp_file "volcomp-rewarmbench" "" in
  Sys.remove dir;
  let store = R.store ~dir in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (R.Store.files store);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      let e = List.find (fun (e : R.entry) -> e.R.name = problem) (R.all ()) in
      ignore (e.R.acquire ~store ~size ~seed () : int);
      let warm_once ?store () =
        let h = Handler.create ?store () in
        let t0 = Unix.gettimeofday () in
        (match Handler.handle h (Protocol.Warm { problem; size; seed }) with
        | Ok _ -> ()
        | Error (_, msg) -> failwith ("rewarm micro: " ^ msg));
        (Unix.gettimeofday () -. t0) *. 1e9
      in
      let best f = List.fold_left (fun acc () -> Float.min acc (f ())) (f ()) [ (); (); (); () ] in
      {
        rw_problem = problem;
        rw_size = size;
        rw_build_ns = best (fun () -> warm_once ());
        rw_snap_ns = best (fun () -> warm_once ~store ());
      })

let pp_rewarm r =
  Fmt.pr "@.== Session re-warm through the serving layer (report-only) ==@.";
  Fmt.pr "  rewarm/%s-%d %26s %11.0f ns   snapshot %9.0f ns   speedup %8.1fx@." r.rw_problem
    r.rw_size "rebuild" r.rw_build_ns r.rw_snap_ns (r.rw_build_ns /. r.rw_snap_ns)

let rewarm_json r =
  Json.Obj
    [
      ("problem", Json.String r.rw_problem);
      ("size", Json.Int r.rw_size);
      ("rebuild_ns", Json.Float r.rw_build_ns);
      ("snapshot_ns", Json.Float r.rw_snap_ns);
      ("speedup", Json.Float (r.rw_build_ns /. r.rw_snap_ns));
    ]

(* --- instrumentation-overhead gate ------------------------------------------ *)

type obs_overhead = {
  oo_workload : string;
  oo_baseline_ns : float;  (** median over the pairs *)
  oo_disabled_ns : float;  (** median over the pairs *)
  oo_enabled_ns : float;
  oo_ratio : float;  (** median of the per-pair disabled/baseline ratios *)
}

let obs_gate = 1.05

(* An even count, so each order leads in half the pairs; single pair
   ratios spread +-30% on a shared host, and the median of nine crossed
   1.05 in several runs there. *)
let obs_pairs = 20

let obs_ok o = o.oo_ratio <= obs_gate

(* The mean of the middle two for an even count. *)
let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The metrics counters compile into every hot path, so a literally
   uninstrumented binary no longer exists to time against.  What the 5%
   gate asserts instead is that the *disabled* path is free: baseline and
   disabled time the identical machine code (collection off), so a gap
   above noise would mean the enabled-flag branch is not the whole
   disabled-path cost.  The two sides are timed in back-to-back pairs
   whose order alternates, and the gate reads the median of the per-pair
   ratios: drift on a shared host moves both halves of a pair together,
   and no side always runs first.  The enabled timing rides along for the
   report and also populates the counters behind the JSON [metrics]
   section. *)
let measure_obs_overhead () =
  let n = 65536 in
  let g = Builder.cycle n in
  let world = CC.world g in
  let workload () =
    let r = Probe.run ~world ~origin:0 CC.solve.Lcl.solve in
    assert (not r.Probe.aborted)
  in
  let prev = Metrics.enabled () in
  Metrics.set_enabled false;
  let baseline = Array.make obs_pairs 0.0 and disabled = Array.make obs_pairs 0.0 in
  for i = 0 to obs_pairs - 1 do
    if i mod 2 = 0 then begin
      baseline.(i) <- time_ns workload;
      disabled.(i) <- time_ns workload
    end
    else begin
      disabled.(i) <- time_ns workload;
      baseline.(i) <- time_ns workload
    end
  done;
  Metrics.set_enabled true;
  let enabled = Float.min (time_ns workload) (Float.min (time_ns workload) (time_ns workload)) in
  Metrics.set_enabled prev;
  {
    oo_workload = Printf.sprintf "world-session/cycle-coloring-%d" n;
    oo_baseline_ns = median baseline;
    oo_disabled_ns = median disabled;
    oo_enabled_ns = enabled;
    oo_ratio = median (Array.init obs_pairs (fun i -> disabled.(i) /. baseline.(i)));
  }

let pp_obs o =
  Fmt.pr "@.== Instrumentation overhead (metrics disabled must be within %.0f%%) ==@."
    ((obs_gate -. 1.0) *. 100.0);
  Fmt.pr
    "  %-38s baseline %8.0f ns/run   disabled %8.0f ns/run   enabled %8.0f ns/run   ratio %.3f (median of %d pairs)   [%s]@."
    o.oo_workload o.oo_baseline_ns o.oo_disabled_ns o.oo_enabled_ns o.oo_ratio obs_pairs
    (if obs_ok o then "ok" else "FAIL")

(* --- SAT-synthesis cost rows -------------------------------------------------- *)

type synth_row = {
  sy_problem : string;
  sy_volume : int;
  sy_sat : bool;
  sy_cegis : int;
  sy_conflicts : int;
  sy_propagations : int;
  sy_vars : int;
  sy_clauses : int;
  sy_wall_s : float;
}

(* Report-only: wall clock and solver effort for the cheap rungs of each
   problem's classification ladder — the SAT rung at the known-feasible
   volume and the UNSAT rung pinned by the spec.  (The deep cycle
   budget-2 refutation stays out of the bench: ~10^5 conflicts, minutes
   of one-core CPU; see EXPERIMENTS.md.)  The verdicts themselves are
   enforced by oracle probe "synth" and @synth-smoke; these rows track
   what obtaining them costs. *)
let run_synth_micro () =
  let module C = Vc_synth.Classify in
  let module E = Vc_synth.Encode in
  List.concat_map
    (fun (s : C.spec) ->
      List.map
        (fun volume ->
          match C.run s ~volume with
          | Error msg -> failwith (Printf.sprintf "synth bench %s: %s" s.C.s_name msg)
          | Ok v ->
              let r = v.C.v_report in
              {
                sy_problem = s.C.s_name;
                sy_volume = volume;
                sy_sat = v.C.v_sat;
                sy_cegis = r.E.cegis_iters;
                sy_conflicts = r.E.sat_stats.Vc_synth.Sat.conflicts;
                sy_propagations = r.E.sat_stats.Vc_synth.Sat.propagations;
                sy_vars = r.E.n_vars;
                sy_clauses = r.E.n_clauses;
                sy_wall_s = r.E.wall_s;
              })
        [ s.C.s_volume; s.C.s_unsat_volume ])
    (C.specs ())

let pp_synth rows =
  Fmt.pr "@.== SAT-synthesis cost (report-only; verdicts gated by @synth-smoke) ==@.";
  List.iter
    (fun r ->
      Fmt.pr
        "  %-16s vol<=%d  %-5s  cegis %2d  conflicts %8d  props %10d  vars %7d  clauses \
         %8d  %7.3fs@."
        r.sy_problem r.sy_volume
        (if r.sy_sat then "SAT" else "UNSAT")
        r.sy_cegis r.sy_conflicts r.sy_propagations r.sy_vars r.sy_clauses r.sy_wall_s)
    rows

let synth_json rows =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [
             ("problem", Json.String r.sy_problem);
             ("volume", Json.Int r.sy_volume);
             ("sat", Json.Bool r.sy_sat);
             ("cegis", Json.Int r.sy_cegis);
             ("conflicts", Json.Int r.sy_conflicts);
             ("propagations", Json.Int r.sy_propagations);
             ("vars", Json.Int r.sy_vars);
             ("clauses", Json.Int r.sy_clauses);
             ("wall_s", Json.Float r.sy_wall_s);
           ])
       rows)

(* --- machine-readable output (via the shared Vc_obs.Json encoder) ----------- *)

let measurement_json m =
  Json.Obj
    [
      ("quantity", Json.String m.Experiments.quantity);
      ("paper_claim", Json.String m.Experiments.paper_claim);
      ("fitted", Json.String (Fmt.str "%a" Fit.pp_model (Experiments.fitted m)));
      ("agrees", Json.Bool (Experiments.agrees m));
      ( "points",
        Json.List
          (List.map (fun (n, y) -> Json.List [ Json.Int n; Json.Float y ]) m.Experiments.points)
      );
    ]

let report_json r =
  Json.Obj
    [
      ("title", Json.String r.Experiments.title);
      ("all_agree", Json.Bool (Experiments.all_agree r));
      ("measurements", Json.List (List.map measurement_json r.Experiments.measurements));
    ]

let micro_json rows =
  Json.List
    (List.map
       (fun r ->
         let opt = function Some v -> Json.Float v | None -> Json.Null in
         Json.Obj
           [
             ("name", Json.String r.m_name);
             ("lazy_ns", Json.Float r.m_lazy_ns);
             ("eager_ns", opt r.m_eager_ns);
             ("speedup", opt (micro_speedup r));
           ])
       rows)

let obs_json o =
  Json.Obj
    [
      ("workload", Json.String o.oo_workload);
      ("baseline_ns", Json.Float o.oo_baseline_ns);
      ("disabled_ns", Json.Float o.oo_disabled_ns);
      ("enabled_ns", Json.Float o.oo_enabled_ns);
      ("ratio", Json.Float o.oo_ratio);
      ("pairs", Json.Int obs_pairs);
      ("gate", Json.Float obs_gate);
      ("ok", Json.Bool (obs_ok o));
    ]

(* --- open-loop saturation of the sharded tier -------------------------------- *)

type sat_step = { st_rate : float; st_achieved : float; st_shed : float }

type saturation = {
  sat_workers : int;
  sat_steps : sat_step list;
  sat_rps : float;  (** highest achieved throughput with shed below the gate *)
}

let sat_shed_gate = 0.01

(* Spawn a real 2-worker sharded tier of the CLI binary and ramp an
   open-loop Poisson arrival rate through it.  The saturation figure is
   the highest *achieved* throughput among steps that shed less than 1%
   of arrivals — past the knee the supervisor sheds instead of queueing
   without bound, so achieved throughput flattens while shed climbs. *)
let measure_saturation ~exe ~quick =
  let workers = 2 in
  let socket = Filename.temp_file "volcomp-sat" ".sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--workers"; string_of_int workers; "--socket"; socket |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let rates =
    if quick then [ 250.; 1000.; 4000. ] else [ 250.; 500.; 1000.; 2000.; 4000.; 8000. ]
  in
  let last = List.length rates - 1 in
  let steps =
    List.mapi
      (fun i rate ->
        let requests = min 400 (max 120 (int_of_float (rate /. 4.))) in
        let cfg =
          {
            Vc_serve.Loadgen.conns = None;
            requests;
            mix = Vc_serve.Loadgen.default_mix;
            seed = 42L;
            rate = Some rate;
            deadline_ms = None;
            verify = false;
            shutdown = i = last;
            prewarm = true;
          }
        in
        match Vc_serve.Loadgen.run ~addr:(Unix.ADDR_UNIX socket) cfg with
        | Ok s ->
            {
              st_rate = rate;
              st_achieved = s.Vc_serve.Loadgen.s_achieved;
              st_shed =
                float_of_int (Vc_serve.Loadgen.error_count s Vc_serve.Protocol.Overloaded)
                /. float_of_int (max 1 s.Vc_serve.Loadgen.s_requests);
            }
        | Error msg ->
            (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
            failwith ("saturation: " ^ msg))
      rates
  in
  ignore (Unix.waitpid [] pid);
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let sat_rps =
    List.fold_left
      (fun acc st -> if st.st_shed < sat_shed_gate then Float.max acc st.st_achieved else acc)
      0. steps
  in
  { sat_workers = workers; sat_steps = steps; sat_rps }

let pp_saturation s =
  Fmt.pr "@.== Open-loop saturation (%d shard workers, shed gate %.0f%%) ==@." s.sat_workers
    (sat_shed_gate *. 100.);
  List.iter
    (fun st ->
      Fmt.pr "  target %7.0f rps   achieved %8.1f rps   shed %5.1f%%@." st.st_rate
        st.st_achieved (st.st_shed *. 100.))
    s.sat_steps;
  Fmt.pr "  saturation throughput: %.1f rps@." s.sat_rps

let saturation_json = function
  | None -> Json.Null
  | Some s ->
      Json.Obj
        [
          ("workers", Json.Int s.sat_workers);
          ("shed_gate", Json.Float sat_shed_gate);
          ("saturation_rps", Json.Float s.sat_rps);
          ( "steps",
            Json.List
              (List.map
                 (fun st ->
                   Json.Obj
                     [
                       ("rate_rps", Json.Float st.st_rate);
                       ("achieved_rps", Json.Float st.st_achieved);
                       ("shed", Json.Float st.st_shed);
                     ])
                 s.sat_steps) );
        ]

let write_json ~path ~quick ~domains ~reports ~families ~wallclock ~speedup ~micro ~ir_micro
    ~snap ~rewarm ~serve ~saturation ~obs ~synth =
  let wallclock_json =
    match wallclock with
    | None -> Json.Null
    | Some rows ->
        Json.List
          (List.map
             (fun (name, ns) ->
               Json.Obj [ ("name", Json.String name); ("ns_per_run", Json.Float ns) ])
             rows)
  in
  let speedup_json =
    match speedup with
    | None -> Json.Null
    | Some s ->
        Json.Obj
          [
            ("workload", Json.String s.workload);
            ("domains", Json.Int s.sp_domains);
            ("cores", Json.Int s.sp_cores);
            ("seq_seconds", Json.Float s.seq_seconds);
            ("par_seconds", Json.Float s.par_seconds);
            ("speedup", Json.Float s.speedup);
            ("gated", Json.Bool (speedup_gated s));
            ("ok", Json.Bool (speedup_ok s));
          ]
  in
  let doc =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("domains", Json.Int domains);
        ("reports", Json.List (List.map report_json reports));
        ("families", Json.List (List.map report_json families));
        ("wallclock", wallclock_json);
        ("speedup", speedup_json);
        ("micro", micro_json micro);
        ("ir_micro", ir_micro_json ir_micro);
        ("snap", snap_json snap);
        ("rewarm", rewarm_json rewarm);
        ("serve", serve_json serve);
        ("saturation", saturation_json saturation);
        ("synth", (match synth with None -> Json.Null | Some rows -> synth_json rows));
        ("obs_overhead", obs_json obs);
        ("metrics", Metrics.to_json ());
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* --- entry ------------------------------------------------------------------ *)

let parse_args () =
  let argv = Sys.argv in
  let quick = ref (Sys.getenv_opt "VOLCOMP_QUICK" = Some "1") in
  let deep = ref false in
  let micro = ref false in
  let synth = ref false in
  let wallclock = ref true in
  let metrics = ref false in
  let json = ref None in
  let jobs = ref None in
  let serve_exe = ref None in
  let family = ref None in
  let i = ref 1 in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--quick" -> quick := true
    | "--deep" -> deep := true
    | "--micro" -> micro := true
    | "--synth" -> synth := true
    | "--no-wallclock" -> wallclock := false
    | "--metrics" -> metrics := true
    | "--json" ->
        incr i;
        if !i >= Array.length argv then failwith "--json requires a path";
        json := Some argv.(!i)
    | "--serve-exe" ->
        incr i;
        if !i >= Array.length argv then failwith "--serve-exe requires a path";
        serve_exe := Some argv.(!i)
    | "--family" ->
        incr i;
        if !i >= Array.length argv then failwith "--family requires a substring";
        family := Some argv.(!i)
    | "-j" | "--jobs" ->
        incr i;
        let bad () = failwith "-j requires a positive integer" in
        if !i >= Array.length argv then bad ();
        (match int_of_string_opt argv.(!i) with
        | Some j when j >= 1 -> jobs := Some j
        | Some _ | None -> bad ())
    | arg -> failwith (Printf.sprintf "unknown argument %S" arg));
    incr i
  done;
  (!quick, !deep, !micro, !synth, !wallclock, !metrics, !json, !jobs, !serve_exe, !family)

let () =
  let quick, deep, micro_only, synth_flag, wallclock, metrics, json, jobs, serve_exe, family =
    parse_args ()
  in
  if metrics then Metrics.set_enabled true;
  let domains = match jobs with Some j -> j | None -> Pool.default_domains () in
  let pool = if domains > 1 then Some (Pool.create ~domains ()) else None in
  Fmt.pr "volcomp benchmark harness — reproducing every table and figure of@.";
  Fmt.pr "\"Seeing Far vs. Seeing Wide\" (Rosenbaum & Suomela, PODC 2020)%s [%d domain%s]@.@."
    (if micro_only then " [microbenchmarks only]"
     else if deep then " [deep ladders]"
     else if quick then " [quick ladders]"
     else "")
    domains
    (if domains = 1 then "" else "s");
  let reports =
    if micro_only then []
    else begin
      let reports =
        match family with
        | Some f ->
            (* family mode: only the graph-family ladders, filtered by title *)
            List.filter
              (fun r -> title_contains r.Experiments.title f)
              (Experiments.family_ladders ?pool ~deep ~quick ())
        | None -> Experiments.all ?pool ~deep ~quick ()
      in
      List.iter (fun r -> Fmt.pr "%a@." Experiments.pp_report r) reports;
      let agreements = List.filter Experiments.all_agree reports in
      Fmt.pr "== Summary: %d/%d reports have every fitted class within the paper's claim ==@."
        (List.length agreements) (List.length reports);
      reports
    end
  in
  (* the families JSON section is always present, even under --micro (the
     bench-smoke profile): the quick family ladders cost well under a
     second, so the smoke JSON still carries Question 7.3's measured
     sinkless-orientation rungs for json_check to validate *)
  let families =
    if micro_only then begin
      let fams = Experiments.family_ladders ?pool ~quick:true () in
      List.iter (fun r -> Fmt.pr "%a@." Experiments.pp_report r) fams;
      fams
    end
    else List.filter (fun r -> title_contains r.Experiments.title "Families:") reports
  in
  let wallclock_rows = if wallclock && not micro_only then Some (run_wallclock ()) else None in
  let micro = run_micro () in
  pp_micro micro;
  let ir_micro = run_ir_micro () in
  pp_ir_micro ir_micro;
  let snap = run_snap_micro ~quick in
  pp_snap snap;
  let rewarm = run_rewarm_micro ~quick in
  pp_rewarm rewarm;
  let serve = run_serve_micro () in
  pp_serve serve;
  (* the saturation ramp needs a real CLI binary to spawn the sharded
     tier from; without --serve-exe the entry is null in the JSON *)
  let saturation = Option.map (fun exe -> measure_saturation ~exe ~quick) serve_exe in
  Option.iter pp_saturation saturation;
  let synth = if synth_flag then Some (run_synth_micro ()) else None in
  Option.iter pp_synth synth;
  let obs = measure_obs_overhead () in
  pp_obs obs;
  if metrics then Fmt.pr "@.%a@." Metrics.pp ();
  let speedup =
    if micro_only || json = None then None else Some (measure_speedup ~pool ~quick)
  in
  Option.iter
    (fun s ->
      Fmt.pr "@.== Speedup: %s — %.2fs sequential, %.2fs on %d domain%s (%.2fx)%s ==@."
        s.workload s.seq_seconds s.par_seconds s.sp_domains
        (if s.sp_domains = 1 then "" else "s")
        s.speedup
        (if speedup_gated s then ""
         else Printf.sprintf " [gate skipped: %d core%s, %d domain%s]" s.sp_cores
             (if s.sp_cores = 1 then "" else "s")
             s.sp_domains
             (if s.sp_domains = 1 then "" else "s")))
    speedup;
  (match json with
  | None -> ()
  | Some path ->
      write_json ~path ~quick ~domains ~reports ~families ~wallclock:wallclock_rows ~speedup
        ~micro ~ir_micro ~snap ~rewarm ~serve ~saturation ~obs ~synth;
      Fmt.pr "wrote %s@." path);
  Option.iter Pool.shutdown pool;
  let mismatch =
    List.exists (fun r -> not (Experiments.all_agree r)) (reports @ families)
  in
  let speedup_failed = match speedup with Some s -> not (speedup_ok s) | None -> false in
  if not (micro_ok micro) then
    Fmt.pr "== FAIL: a world-session microbenchmark fell below the 10x lazy-vs-eager bar ==@.";
  if not (ir_micro_ok ir_micro) then
    Fmt.pr "== FAIL: a batched-IR microbenchmark fell below the 10x batched-vs-closure bar ==@.";
  if not (snap_ok snap) then
    Fmt.pr "== FAIL: a snapshot load fell below the 10x load-vs-build bar ==@.";
  if speedup_failed then
    Fmt.pr "== FAIL: the parallel run lost to the sequential run on a multi-core box ==@.";
  if not (obs_ok obs) then
    Fmt.pr "== FAIL: the metrics-disabled hot path exceeded the %.0f%% overhead gate ==@."
      ((obs_gate -. 1.0) *. 100.0);
  if mismatch || not (micro_ok micro) || not (ir_micro_ok ir_micro) || not (snap_ok snap)
     || speedup_failed || not (obs_ok obs)
  then exit 1
