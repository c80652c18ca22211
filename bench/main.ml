(* Benchmark harness: reproduces the paper's tables and figures and
   times the cost claims the ladders rest on.  Each section below is one
   member of the --json document, declared in Bench_schema:

   - reports, families: the reproduction experiments
     (Vc_measure.Experiments), one report per paper table/figure, with
     the fitted growth class of every measured curve against the
     paper's claim;
   - wallclock: Bechamel wall-clock time of one solver run per paper
     artifact;
   - micro, ir_micro, snap, rewarm, obs_overhead, speedup: timed
     two-sided comparisons (lazy vs eager world, batched IR vs closure,
     snapshot load vs cold build, serving-layer re-warm from snapshot vs
     rebuild, metrics disabled vs baseline, sequential vs parallel),
     most of them gated;
   - serve, saturation, synth: report-only serving-layer and
     SAT-synthesis cost rows;
   - metrics: the Vc_obs counters of the run.

   `dune exec bench/main.exe` runs the reports and every timed section
   but saturation and synth.  Flags: `--quick` (or VOLCOMP_QUICK=1) for
   the shortened ladders, `--deep` to extend each ladder past the
   standard profile, `--no-wallclock` to skip the Bechamel pass,
   `--micro` for the timed sections plus the quick family ladders only
   (the bench-smoke mode), `--synth` for the synth rows, `--serve-exe
   EXE` for the saturation ramp against EXE's sharded tier, `--family
   SUBSTR` to run only the graph-family ladders whose title contains
   SUBSTR (case-insensitive), `--metrics` to collect and print the
   Vc_obs counters for the whole run, `-j N` (or VOLCOMP_JOBS) to size
   the domain pool, and `--json PATH` to also write the document (the
   speedup section is measured only then).  Exits 1, after one FAIL line
   per verdict, when any report has a [MISMATCH] fitted class or any
   gated row misses its bar; exits 2 on a bad argument or a --family
   filter that matches no ladder. *)

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
module Ir_exec = Vc_ir.Exec
module Ir_lib = Vc_ir.Library
module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics
module Schema = Bench_schema

let run_solver ~world ?randomness ~origin (solver : (_, _) Lcl.solver) () =
  let r = Probe.run ~world ?randomness ~origin solver.Lcl.solve in
  assert (not r.Probe.aborted)

(* --- rows: one type, printer, encoder and gate fold for every section ------ *)

type gate = { bar : float; at_most : bool }

(* A section row: its name member, the members after it in schema
   order, and, in a timed comparison, the compared statistic and its
   gate (None: reported, not enforced). *)
type row = { name : string; fields : Json.t list; stat : float option; gate : gate option }

type section = { title : string; obj : Schema.obj; rows : row list }

let plain name fields = { name; fields; stat = None; gate = None }
let at_least bar = Some { bar; at_most = false }

let passes r =
  match (r.gate, r.stat) with
  | Some g, Some s -> if g.at_most then s <= g.bar else s >= g.bar
  | _ -> true

let opt_float = function Some v -> Json.Float v | None -> Json.Null
let encode (o : Schema.obj) values = Json.Obj (List.combine (Schema.names o) values)

let row_values o r =
  (Json.String r.name :: r.fields)
  @
  if Schema.gated o then
    [
      opt_float r.stat;
      opt_float (Option.map (fun g -> g.bar) r.gate);
      Json.Bool (r.gate <> None);
      Json.Bool (passes r);
    ]
  else []

let rows_json s = Json.List (List.map (fun r -> encode s.obj (row_values s.obj r)) s.rows)
let row_json s = encode s.obj (row_values s.obj (List.hd s.rows))

let pp_value ppf = function
  | Json.Float f when Float.abs f >= 100. -> Fmt.pf ppf "%.0f" f
  | Json.Float f -> Fmt.pf ppf "%.4g" f
  | Json.Int i -> Fmt.int ppf i
  | Json.Bool b -> Fmt.bool ppf b
  | Json.String s -> Fmt.string ppf s
  | _ -> Fmt.string ppf "-"

(* Prints a section as it completes: each row's name, its members up to
   the compared statistic, and its gate verdict. *)
let show title obj rows =
  Fmt.pr "@.== %s ==@." title;
  let gated = Schema.gated obj in
  List.iter
    (fun r ->
      let members = List.tl (List.combine (Schema.names obj) (row_values obj r)) in
      let shown = List.length r.fields + if gated then 1 else 0 in
      Fmt.pr "  %-38s" r.name;
      List.iteri (fun i (k, v) -> if i < shown then Fmt.pr "  %s %a" k pp_value v) members;
      if gated then
        Fmt.pr "  [%s]"
          (match r.gate with None -> "not gated" | Some _ -> if passes r then "ok" else "FAIL");
      Fmt.pr "@.")
    rows;
  { title; obj; rows }

(* Every failed verdict of the run, one line each: the gated rows that
   miss their bar and the reports with a fitted class outside the
   paper's claim.  Drives both the FAIL lines and the exit code. *)
let failures sections reports =
  List.concat_map
    (fun s ->
      List.filter_map
        (fun r ->
          match (r.gate, r.stat) with
          | Some g, Some v when not (passes r) ->
              Some
                (Fmt.str "%s: %s reads %.3g, bar %s %g" s.title r.name v
                   (if g.at_most then "<=" else ">=")
                   g.bar)
          | _ -> None)
        s.rows)
    sections
  @ List.filter_map
      (fun r ->
        if Experiments.all_agree r then None
        else Some (Fmt.str "%s: a fitted class is outside the paper's claim" r.Experiments.title))
      reports

(* --- timing ----------------------------------------------------------------- *)

(* One adaptive window: after one warm-up call, grow the repetition
   count geometrically until a batch takes >= 50ms, then report ns per
   repetition.  Bechamel would be overkill here — these rows only need
   enough resolution to witness an order-of-magnitude gap. *)
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

let window f () = time_ns f

(* One call, in ns: for a side that cannot repeat within a window. *)
let once f () =
  let t0 = Unix.gettimeofday () in
  f ();
  (Unix.gettimeofday () -. t0) *. 1e9

(* [rounds] samples of each side of a comparison, in alternating order:
   even rounds time [a] first, odd rounds [b], so neither side always
   leads and both sample the same quiet stretches of a busy host. *)
let sample ~rounds a b =
  let xs = Array.make rounds 0.0 and ys = Array.make rounds 0.0 in
  for i = 0 to rounds - 1 do
    if i mod 2 = 0 then begin
      xs.(i) <- a ();
      ys.(i) <- b ()
    end
    else begin
      ys.(i) <- b ();
      xs.(i) <- a ()
    end
  done;
  (xs, ys)

let best = Array.fold_left Float.min infinity

(* The mean of the middle two for an even count. *)
let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

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
  List.map (fun (name, ns) -> plain name [ Json.Float ns ]) (List.sort compare rows)


(* --- sequential vs parallel speedup --------------------------------------- *)

(* Full-graph solve_and_check: n independent probe runs, each paying a
   session BFS — the embarrassingly parallel hot loop of every report.
   One single-shot sample per side.  A parallel run must not lose to the
   sequential one, but only where parallelism is physically possible:
   on a 1-core box (CI containers) the row is reported, not gated. *)
let measure_speedup ~pool ~quick =
  let depth = if quick then 10 else 12 in
  let inst = LC.hard_distance_instance ~depth ~leaf_color:TL.Blue in
  let world = LC.world inst in
  let solve pool cell () =
    cell :=
      Some
        (Runner.solve_and_check ~world ~problem:LC.problem ~graph:inst.LC.graph
           ~input:(LC.input inst) ~solver:LC.solve_distance ?pool ())
  in
  let seq = ref None and par = ref None in
  let s, p = sample ~rounds:1 (once (solve None seq)) (once (solve pool par)) in
  (match (!seq, !par) with
  | Some (seq_stats, true), Some (par_stats, true) when seq_stats = par_stats -> ()
  | _ -> failwith "speedup workload: parallel run diverged from sequential run");
  let domains = match pool with Some p -> Pool.domains p | None -> 1 in
  let cores = Domain.recommended_domain_count () in
  {
    name = Printf.sprintf "leafcoloring/solve_and_check/depth-%d" depth;
    fields =
      [ Json.Int domains; Json.Int cores; Json.Float (best s /. 1e9); Json.Float (best p /. 1e9) ];
    stat = Some (best s /. best p);
    gate = (if cores >= 2 && domains >= 2 then at_least 1.0 else None);
  }

(* --- lazy vs eager world microbenchmarks ----------------------------------- *)

(* The before/after evidence for the lazy-world rewrite.  Each probe run
   opens a fresh session; on an eager world that costs a full-graph BFS,
   on a lazy world only the ball the solver actually explores.  One
   adaptive window per side, gated at eager/lazy >= 10x on the ball << n
   rows.  Sizes are pinned at the largest quick-ladder rungs so the
   quick and full profiles measure the same workloads. *)
let run_micro () =
  let lazy_vs_eager ~name ~gated ~lazy_world ~eager_world ~origin solver =
    let l, e =
      sample ~rounds:1
        (window (run_solver ~world:lazy_world ~origin solver))
        (window (run_solver ~world:eager_world ~origin solver))
    in
    {
      name;
      fields = [ Json.Float (best l); Json.Float (best e) ];
      stat = Some (best e /. best l);
      gate = (if gated then at_least 10.0 else None);
    }
  in
  let cycle =
    (* The acceptance row: Cole–Vishkin touches a log*-sized ball of the
       largest quick-ladder cycle, so per-session cost is the session
       setup itself. *)
    let n = 65536 in
    let g = Builder.cycle n in
    lazy_vs_eager
      ~name:(Printf.sprintf "world-session/cycle-coloring-%d" n)
      ~gated:true ~lazy_world:(CC.world g)
      ~eager_world:(World.of_graph_eager g ~input:(fun _ -> ()))
      ~origin:0 CC.solve
  in
  let parity =
    (* Class A's DegreeParity (Figures 1–2): volume and distance are
       Θ(1), so the whole probe run is session setup — the purest
       measurement of per-session cost on a 2^16-node tree. *)
    let g = Builder.complete_binary_tree ~depth:15 in
    lazy_vs_eager
      ~name:(Printf.sprintf "world-session/degree-parity-%d" (Graph.n g))
      ~gated:true ~lazy_world:(Trivial.world g)
      ~eager_world:(World.of_graph_eager g ~input:(fun _ -> ()))
      ~origin:0 Trivial.solve
  in
  let leaf_control =
    (* Control: RWtoLeaf's distance solver explores nearly the whole
       hard instance, so laziness cannot win — it must only not lose. *)
    let inst = LC.hard_distance_instance ~depth:10 ~leaf_color:TL.Blue in
    lazy_vs_eager ~name:"world-session/leafcoloring-depth-10" ~gated:false
      ~lazy_world:(LC.world inst)
      ~eager_world:(World.of_graph_eager inst.LC.graph ~input:(LC.input inst))
      ~origin:0 LC.solve_distance
  in
  let hot_path =
    let steps = 256 in
    let world = CC.world (Builder.cycle 65536) in
    (* March [steps] hops around the cycle, never backtracking, so every
       query lands on a fresh node: a pure exercise of the query ->
       admit -> incremental-BFS path with no solver logic on top.  No
       eager twin, so no comparison. *)
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
    let ns =
      time_ns (fun () -> ignore (Probe.run ~world ~origin:0 walk : Graph.node Probe.result))
    in
    plain (Printf.sprintf "probe-hot-path/cycle-walk-%d" steps) [ Json.Float ns; Json.Null ]
  in
  [ cycle; parity; leaf_control; hot_path ]

(* --- batched-IR vs closure microbenchmarks ---------------------------------- *)

(* The perf evidence for the IR port: on probe-bound problems — O(1) or
   O(log* n) queries per origin, so the closure path is dominated by
   per-origin session setup, closure dispatch and allocation — the
   allocation-free executor must clear 10x.  Both sides run the
   registry-checked oracle pairs (oracle probe [ir] proves them
   result-identical), so this is a pure same-answer throughput
   comparison: one [run_batch_into] over a sink versus one [Probe.run]
   per origin.  Min of [ir_rounds] windows per side: the min discards GC
   pauses and scheduler interference.  (Min-of-3 timed one side after
   the other read 7.3x-15.8x on one ~11x row.)  The ball-bound control
   rows (the executor pays the same BFS the closure does) are not
   gated. *)
let ir_rounds = 7

let run_ir_micro () =
  let row ~name ~gated ~none spec ~graph ~input ~world ~(solver : (_, _) Lcl.solver) ~count =
    let origins = Array.of_list (Runner.sample_origins graph ~count ~seed:7L) in
    let snk = Ir_exec.sink ~none (Array.length origins) in
    let batched () = Ir_exec.run_batch_into spec ~graph ~input ~origins ~sink:snk in
    let closure () =
      Array.iter
        (fun v -> ignore (Probe.run ~world ~origin:v solver.Lcl.solve : _ Probe.result))
        origins
    in
    let k = float_of_int (Array.length origins) in
    let b, c = sample ~rounds:ir_rounds (window batched) (window closure) in
    {
      name;
      fields = [ Json.Float (best b /. k); Json.Float (best c /. k) ];
      stat = Some (best c /. best b);
      gate = (if gated then at_least 10.0 else None);
    }
  in
  let parity =
    let g = Builder.complete_binary_tree ~depth:15 in
    row
      ~name:(Printf.sprintf "batched-ir/degree-parity-%d" (Graph.n g))
      ~gated:true ~none:Trivial.Even Ir_lib.degree_parity ~graph:g
      ~input:(fun _ -> ())
      ~world:(Trivial.world g) ~solver:Trivial.solve ~count:65535
  in
  let cycle =
    let n = 65536 in
    let g = Builder.cycle n in
    row
      ~name:(Printf.sprintf "batched-ir/cycle-coloring-%d" n)
      ~gated:true ~none:0 (Ir_lib.cycle_coloring ~n) ~graph:g
      ~input:(fun _ -> ())
      ~world:(CC.world g) ~solver:CC.solve ~count:n
  in
  let status =
    let inst = LC.random_instance ~n:65535 ~seed:1L in
    row ~name:"batched-ir/probe-tree-status-65535" ~gated:false ~none:TL.Internal
      Ir_lib.probe_tree_status ~graph:inst.LC.graph ~input:(LC.input inst)
      ~world:(LC.world inst) ~solver:Ir_lib.status_solver ~count:16384
  in
  let leaf_control =
    let inst = LC.random_instance ~n:2047 ~seed:1L in
    row ~name:"batched-ir/leaf-coloring-2047" ~gated:false ~none:TL.Red Ir_lib.leaf_coloring
      ~graph:inst.LC.graph ~input:(LC.input inst) ~world:(LC.world inst)
      ~solver:LC.solve_distance ~count:256
  in
  [ parity; cycle; status; leaf_control ]

(* --- serving-layer microbenchmarks ------------------------------------------- *)

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
    time_ns (fun () ->
        match Vc_serve.Handler.handle handler probe_q with Ok _ -> () | Error _ -> assert false)
  in
  let req = { P.id = 1; deadline_ms = Some 1000; query = probe_q } in
  let codec =
    time_ns (fun () ->
        let wire = P.frame (Json.to_string (P.request_to_json req)) in
        let dec = P.decoder () in
        P.feed dec (Bytes.of_string wire) (String.length wire);
        match P.next_frame dec with
        | Ok (Some body) -> (
            match Result.bind (Json.parse body) P.request_of_json with
            | Ok _ -> ()
            | Error _ -> assert false)
        | _ -> assert false)
  in
  [
    plain (Printf.sprintf "serve/probe-warm-cache/%s" problem) [ Json.Float warm ];
    plain "serve/request-codec" [ Json.Float codec ];
  ]

(* --- snapshot-load vs cold-build microbenchmarks ----------------------------- *)

(* A fresh snapshot store in a temp directory, removed after [f]. *)
let with_store f =
  let module R = Vc_check.Registry in
  let dir = Filename.temp_file "volcomp-snapbench" "" in
  Sys.remove dir;
  let store = R.store ~dir in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) (R.Store.files store);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f store)

(* The perf evidence for the snapshot tier: warming a session from the
   store must beat building the instance from scratch by >= 10x on the
   two largest ladder sizes of each benched problem.  Both paths go
   through the same [Registry.make] entry point (oracle probe [snap]
   proves them byte-identical), so this is a pure same-answer cost
   comparison: graph construction + labelling versus one [Unix.map_file]
   plus a header checksum — the load side is O(1) in the instance, which
   is the whole point.  Min of 3 windows per side. *)
let run_snap_micro ~quick =
  let module R = Vc_check.Registry in
  let entry name = List.find (fun (e : R.entry) -> e.R.name = name) (R.all ()) in
  let row (e : R.entry) ~size =
    with_store (fun store ->
        let seed = 42L in
        (* publish once so the timed path below is a pure store hit *)
        ignore (e.R.acquire ~store ~size ~seed () : int);
        let bytes =
          List.fold_left (fun acc p -> acc + (Unix.stat p).Unix.st_size) 0 (R.Store.files store)
        in
        let build () = ignore (e.R.make ~size ~seed () : R.trial) in
        let load () =
          let t = e.R.make ~store ~size ~seed () in
          assert (t.R.t_source = `Snapshot)
        in
        let b, l = sample ~rounds:3 (window build) (window load) in
        {
          name = Printf.sprintf "snap/%s-%d" e.R.name size;
          fields = [ Json.Float (best b); Json.Float (best l); Json.Int bytes ];
          stat = Some (best b /. best l);
          gate = at_least 10.0;
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

(* --- session re-warm through the serving layer -------------------------------- *)

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
  let problem = "CycleColoring3" in
  let size = if quick then 1 lsl 15 else 1 lsl 17 in
  let seed = 42L in
  with_store (fun store ->
      let e = List.find (fun (e : R.entry) -> e.R.name = problem) (R.all ()) in
      ignore (e.R.acquire ~store ~size ~seed () : int);
      let warm ?store () =
        let h = Handler.create ?store () in
        once
          (fun () ->
            match Handler.handle h (Vc_serve.Protocol.Warm { problem; size; seed }) with
            | Ok _ -> ()
            | Error (_, msg) -> failwith ("rewarm micro: " ^ msg))
          ()
      in
      let r, s = sample ~rounds:5 (fun () -> warm ()) (fun () -> warm ~store ()) in
      {
        name = problem;
        fields = [ Json.Int size; Json.Float (best r); Json.Float (best s) ];
        stat = Some (best r /. best s);
        gate = None;
      })

(* --- instrumentation-overhead gate ------------------------------------------ *)

(* An even count, so each order leads in half the pairs; single pair
   ratios spread +-30% on a shared host, and the median of nine crossed
   1.05 in several runs there. *)
let obs_pairs = 20

(* The metrics counters compile into every hot path, so a literally
   uninstrumented binary no longer exists to time against.  What the 5%
   gate asserts instead is that the *disabled* path is free: baseline and
   disabled time the identical machine code (collection off), so a gap
   above noise would mean the enabled-flag branch is not the whole
   disabled-path cost.  The gate reads the median of the per-pair
   disabled/baseline ratios: drift on a shared host moves both halves of
   a pair together.  The enabled timing (min of 3 windows) rides along
   for the report and also populates the counters behind the JSON
   [metrics] section. *)
let measure_obs_overhead () =
  let n = 65536 in
  let world = CC.world (Builder.cycle n) in
  let workload = run_solver ~world ~origin:0 CC.solve in
  let prev = Metrics.enabled () in
  Metrics.set_enabled false;
  let baseline, disabled = sample ~rounds:obs_pairs (window workload) (window workload) in
  Metrics.set_enabled true;
  let enabled = best (Array.init 3 (fun _ -> time_ns workload)) in
  Metrics.set_enabled prev;
  {
    name = Printf.sprintf "world-session/cycle-coloring-%d" n;
    fields =
      [
        Json.Float (median baseline);
        Json.Float (median disabled);
        Json.Float enabled;
        Json.Int obs_pairs;
      ];
    stat = Some (median (Array.map2 ( /. ) disabled baseline));
    gate = Some { bar = 1.05; at_most = true };
  }

(* --- SAT-synthesis cost rows -------------------------------------------------- *)

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
              plain s.C.s_name
                [
                  Json.Int volume;
                  Json.Bool v.C.v_sat;
                  Json.Int r.E.cegis_iters;
                  Json.Int r.E.sat_stats.Vc_synth.Sat.conflicts;
                  Json.Int r.E.sat_stats.Vc_synth.Sat.propagations;
                  Json.Int r.E.n_vars;
                  Json.Int r.E.n_clauses;
                  Json.Float r.E.wall_s;
                ])
        [ s.C.s_volume; s.C.s_unsat_volume ])
    (C.specs ())

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

let saturation_json s =
  encode Schema.saturation
    [
      Json.Int s.sat_workers;
      Json.Float sat_shed_gate;
      Json.Float s.sat_rps;
      Json.List
        (List.map
           (fun st ->
             encode Schema.step
               [ Json.Float st.st_rate; Json.Float st.st_achieved; Json.Float st.st_shed ])
           s.sat_steps);
    ]

(* --- reports ------------------------------------------------------------------ *)

let report_json r =
  let measurement m =
    encode Schema.measurement
      [
        Json.String m.Experiments.quantity;
        Json.String m.Experiments.paper_claim;
        Json.String (Fmt.str "%a" Fit.pp_model (Experiments.fitted m));
        Json.Bool (Experiments.agrees m);
        Json.List
          (List.map (fun (n, y) -> Json.List [ Json.Int n; Json.Float y ]) m.Experiments.points);
      ]
  in
  encode Schema.report
    [
      Json.String r.Experiments.title;
      Json.Bool (Experiments.all_agree r);
      Json.List (List.map measurement r.Experiments.measurements);
    ]

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
        | Some f -> (
            (* family mode: only the graph-family ladders, filtered by title *)
            match Experiments.select f (Experiments.family_ladders ?pool ~deep ~quick ()) with
            | Ok reports -> reports
            | Error msg ->
                Fmt.epr "bench: --family: %s@." msg;
                Option.iter Pool.shutdown pool;
                exit 2)
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
    else List.filter (fun r -> Experiments.contains r.Experiments.title "Families:") reports
  in
  let wallclock =
    if wallclock && not micro_only then
      Some
        (show "Wall-clock microbenchmarks (one per paper artifact)" Schema.wallclock
           (run_wallclock ()))
    else None
  in
  let micro =
    show "Lazy vs eager world microbenchmarks (gate 10x)" Schema.micro (run_micro ())
  in
  let ir_micro =
    show "Batched-IR vs closure microbenchmarks (gate 10x)" Schema.ir_micro (run_ir_micro ())
  in
  let snap =
    show "Snapshot-load vs cold-build microbenchmarks (gate 10x)" Schema.snap
      (run_snap_micro ~quick)
  in
  let rewarm =
    show "Session re-warm through the serving layer (report-only)" Schema.rewarm
      [ run_rewarm_micro ~quick ]
  in
  let serve =
    show "Serving-layer microbenchmarks (ns per request)" Schema.serve (run_serve_micro ())
  in
  (* the saturation ramp needs a real CLI binary to spawn the sharded
     tier from; without --serve-exe the entry is null in the JSON *)
  let saturation = Option.map (fun exe -> measure_saturation ~exe ~quick) serve_exe in
  Option.iter pp_saturation saturation;
  let synth =
    if synth_flag then
      Some
        (show "SAT-synthesis cost (report-only; verdicts gated by @synth-smoke)" Schema.synth
           (run_synth_micro ()))
    else None
  in
  let obs =
    show "Instrumentation overhead (metrics disabled, median of 20 pair ratios, gate 1.05)"
      Schema.obs_overhead [ measure_obs_overhead () ]
  in
  if metrics then Fmt.pr "@.%a@." Metrics.pp ();
  let speedup =
    if micro_only || json = None then None
    else
      Some
        (show "Speedup: sequential vs parallel (gated only on >= 2 cores and >= 2 domains)"
           Schema.parallel [ measure_speedup ~pool ~quick ])
  in
  (match json with
  | None -> ()
  | Some path ->
      let opt f = Option.fold ~none:Json.Null ~some:f in
      let doc =
        encode Schema.document
          [
            Json.Bool quick;
            Json.Int domains;
            Json.List (List.map report_json reports);
            Json.List (List.map report_json families);
            opt rows_json wallclock;
            opt row_json speedup;
            rows_json micro;
            rows_json ir_micro;
            rows_json snap;
            row_json rewarm;
            rows_json serve;
            opt saturation_json saturation;
            opt rows_json synth;
            row_json obs;
            Metrics.to_json ();
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string doc);
      output_char oc '\n';
      close_out oc;
      Fmt.pr "wrote %s@." path);
  Option.iter Pool.shutdown pool;
  let sections =
    [ micro; ir_micro; snap; rewarm; serve; obs ]
    @ List.filter_map Fun.id [ wallclock; synth; speedup ]
  in
  (* outside --micro the families are among the reports *)
  match failures sections (if micro_only then families else reports) with
  | [] -> ()
  | failed ->
      List.iter (Fmt.pr "== FAIL: %s ==@.") failed;
      exit 1
