(* reproduce and synth-ladder: in-process passes over a fixed list of
   operations (one experiment report, one synthesis rung), repeated until
   the run's time is spent.  Every operation's output is checked. *)

module Metrics = Vc_obs.Metrics
module E = Vc_measure.Experiments
module C = Vc_synth.Classify
module Enc = Vc_synth.Encode
module Sat = Vc_synth.Sat

type outcome = Serve_bench.outcome = { attempted : int; failed : int; metrics : (string * float) list }

(* One operation: its metric name and a call returning [(title, ok,
   counts)] — what it produced, whether that is what the paper states,
   and per-operation counts for the traced run. *)
type op = { op_name : string; call : unit -> string * bool * (string * float) list }

(* --- reproduce ---------------------------------------------------------------- *)

(* The calls [Experiments.all ~quick:true ()] makes, in its order, with
   no pool; figure 3 is derived from the Table-1 reports of the same
   pass.  [check_reproduce_order] confirms the list still matches. *)
let reproduce_ops =
  let quick = true in
  let t1 = ref [] in
  let report ?(table1 = false) name f =
    {
      op_name = name;
      call =
        (fun () ->
          let r = f () in
          if table1 then t1 := !t1 @ [ r ];
          (r.E.title, E.all_agree r, []));
    }
  in
  [
    report ~table1:true "table1_leafcoloring" (fun () ->
        t1 := [];
        E.table1_leafcoloring ~quick ());
    report ~table1:true "table1_balancedtree" (fun () -> E.table1_balancedtree ~quick ());
    report ~table1:true "table1_hierarchical_thc_k2" (fun () -> E.table1_hierarchical_thc ~quick ~k:2 ());
    report ~table1:true "table1_hierarchical_thc_k3" (fun () -> E.table1_hierarchical_thc ~quick ~k:3 ());
    report ~table1:true "table1_hybrid_thc" (fun () -> E.table1_hybrid_thc ~quick ());
    report ~table1:true "table1_hh_thc" (fun () -> E.table1_hh_thc ~quick ());
    report "figure12_classes" (fun () -> E.figure12_classes ~quick ());
    report "figure8_adversary" (fun () -> E.figure8_adversary ~quick ());
    report "congest_gap" (fun () -> E.congest_gap ~quick ());
    report "congest_balancedtree" (fun () -> E.congest_balancedtree ~quick ());
    report "family_torus" (fun () -> E.family_torus ~quick ());
    report "family_regular" (fun () -> E.family_regular ~quick ());
    report "ablation_waypoint_rate" (fun () -> E.ablation_waypoint_rate ~quick ());
    report "ablation_walk_flip" (fun () -> E.ablation_walk_flip ~quick ());
    report "figure3_lines" (fun () -> E.figure3_lines ~quick !t1);
  ]

let check_reproduce_order () =
  let mine = List.map (fun o -> let title, _, _ = o.call () in title) reproduce_ops in
  let theirs = List.map (fun r -> r.E.title) (E.all ~quick:true ()) in
  if mine = theirs then Ok ()
  else Error "the reproduce operations no longer match Experiments.all"

let reproduce_counters =
  [
    "probe.queries";
    "world.bfs_expanded";
    "bfs.nodes_expanded";
    "ir.batch.steps";
    "runner.probe_runs";
    "rng.bits_materialized";
  ]

(* --- synth-ladder ---------------------------------------------------------------- *)

let rung name ~problem ~volume ~certify ~sat =
  {
    op_name = name;
    call =
      (fun () ->
        let spec = match C.find problem with Some s -> s | None -> failwith ("no spec " ^ problem) in
        match C.run ~certify spec ~volume with
        | Error msg -> (msg, false, [])
        | Ok v ->
            let r = v.C.v_report in
            let s = r.Enc.sat_stats in
            let ok = v.C.v_sat = sat && ((not certify) || r.Enc.certified = Some true) in
            ( Printf.sprintf "%s@%d" problem volume,
              ok,
              [
                ("sat.conflicts", float_of_int s.Sat.conflicts);
                ("sat.propagations", float_of_int s.Sat.propagations);
                ("sat.learned", float_of_int s.Sat.learned);
                ("encode.n_vars", float_of_int r.Enc.n_vars);
                ("encode.n_clauses", float_of_int r.Enc.n_clauses);
                ("encode.cegis_iters", float_of_int r.Enc.cegis_iters);
              ] ));
  }

let synth_ops =
  [
    rung "leaf4" ~problem:"leaf-coloring" ~volume:4 ~certify:false ~sat:true;
    rung "leaf3" ~problem:"leaf-coloring" ~volume:3 ~certify:false ~sat:false;
    rung "leaf2_certified" ~problem:"leaf-coloring" ~volume:2 ~certify:true ~sat:false;
    rung "cycle3" ~problem:"cycle-coloring" ~volume:3 ~certify:false ~sat:true;
  ]

let synth_counts = [ "sat.conflicts"; "sat.propagations"; "sat.learned"; "sat.conflicts_per_s"; "encode.n_vars"; "encode.n_clauses"; "encode.cegis_iters" ]

(* --- passes --------------------------------------------------------------------- *)

type pass = { pass_s : float; op_s : float array; failed : int; counts : (string * float) list array }

let run_pass ?spans ~rid ops =
  let n = List.length ops in
  let op_s = Array.make n 0. and counts = Array.make n [] in
  let failed = ref 0 in
  let root = Option.map (fun s -> Spans.start s ~name:"pass" ~parent:(-1) ~rid) spans in
  let t0 = Util.now () in
  List.iteri
    (fun i o ->
      let sp = Option.map (fun s -> Spans.start s ~name:o.op_name ~parent:(Option.get root) ~rid) spans in
      let (_, ok, c), dt = Util.time o.call in
      Option.iter (fun s -> ignore (Spans.stop s (Option.get sp) : float)) spans;
      op_s.(i) <- dt;
      counts.(i) <- c;
      if not ok then incr failed)
    ops;
  let pass_s = Util.now () -. t0 in
  Option.iter (fun s -> ignore (Spans.stop s (Option.get root) : float)) spans;
  { pass_s; op_s; failed = !failed; counts }

(* Median of five cold starts of the CLI these workloads stand for:
   process start-up plus every library's initialisation, the cost a user
   pays before the first report or rung. *)
let cli_startup_s ~exe =
  let once () =
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
    let (), dt =
      Util.time (fun () ->
          let pid = Unix.create_process exe [| exe; "list" |] Unix.stdin null null in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> ()
          | _ -> failwith "volcomp list failed")
    in
    Unix.close null;
    dt
  in
  Util.mid_median (Array.init 5 (fun _ -> once ()))

let end_to_end ~exe ops ~seconds =
  let setup_s = cli_startup_s ~exe in
  let t_start = Util.now () in
  let rec loop acc =
    if acc <> [] && Util.now () -. t_start >= seconds then List.rev acc
    else loop (run_pass ~rid:(List.length acc) ops :: acc)
  in
  let passes = Array.of_list (loop []) in
  let n_ops = List.length ops in
  let attempted = n_ops * Array.length passes in
  let failed = Array.fold_left (fun a p -> a + p.failed) 0 passes in
  (* a pass is what one user invocation runs, so it is the unit of latency *)
  let pass_s = Array.map (fun p -> p.pass_s) passes in
  let wall = Util.mid_median pass_s in
  let verified_per_pass = float_of_int (attempted - failed) /. float_of_int (Array.length passes) in
  {
    attempted;
    failed;
    metrics =
      [
        ("wall_s", wall);
        ("goodput_per_s", verified_per_pass /. wall);
        ("p50_us", 1e6 *. Util.percentile 50. pass_s);
        ("p99_us", 1e6 *. Util.percentile 99. pass_s);
        ("setup_s", setup_s);
      ];
  }

(* A pass with spans and library counters on, between two bare passes;
   the gap between the traced time and the bare mean is the tracing
   overhead. *)
let traced ops ~out_file ~per_op =
  let bare1 = run_pass ~rid:0 ops in
  let spans = Spans.create () in
  Metrics.reset ();
  let p = Metrics.with_enabled (fun () -> run_pass ~spans ~rid:1 ops) in
  let bare2 = run_pass ~rid:2 ops in
  let bare_s = (bare1.pass_s +. bare2.pass_s) /. 2. in
  Spans.write spans out_file;
  let metrics =
    List.concat (List.mapi (fun i o -> per_op o p.op_s.(i) p.counts.(i)) ops)
    @ [
        ("trace.overhead_pct", 100. *. ((p.pass_s /. bare_s) -. 1.));
        ("peak_rss_mb", Util.vm_hwm_mb 0);
      ]
  in
  { attempted = 3 * List.length ops; failed = bare1.failed + p.failed + bare2.failed; metrics }

let counter name = float_of_int (Metrics.value (Metrics.counter name))

let reproduce ~exe ~out_dir ~seconds ~trace =
  if not trace then end_to_end ~exe reproduce_ops ~seconds
  else begin
    let o =
      traced reproduce_ops
        ~out_file:(Filename.concat out_dir "spans-reproduce.jsonl")
        ~per_op:(fun o s _ -> [ ("experiments." ^ o.op_name ^ "_s", s) ])
    in
    let queries = counter "probe.queries" in
    let lib =
      List.map (fun c -> (c, counter c)) reproduce_counters
      @ [ ("probe.resolved_hit_ratio", if queries > 0. then counter "probe.resolved_hits" /. queries else 0.) ]
    in
    { o with metrics = o.metrics @ lib }
  end

let synth ~exe ~out_dir ~seconds ~trace =
  if not trace then end_to_end ~exe synth_ops ~seconds
  else
    traced synth_ops
      ~out_file:(Filename.concat out_dir "spans-synth-ladder.jsonl")
      ~per_op:(fun o s counts ->
        let pre = "synth." ^ o.op_name in
        let conflicts = Option.value (List.assoc_opt "sat.conflicts" counts) ~default:0. in
        ((pre ^ "_s", s) :: List.map (fun (k, v) -> (pre ^ "." ^ k, v)) counts)
        @ [ (pre ^ ".sat.conflicts_per_s", conflicts /. s) ])
