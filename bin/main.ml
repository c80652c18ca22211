(* volcomp — command-line driver.

   Subcommands:
     experiments  run the paper-reproduction experiments (all or by substring)
     solve        build an instance of a problem, run a solver from every
                  node, validate the assembled output, print cost stats
     adversary    run the Proposition 3.13 interactive adversary
     congest      run the Example 7.6 CONGEST routing experiment
     check        differential conformance + fuzzing oracle
     trace        record a probe transcript, or replay one bit-for-bit
     export       render an instance (optionally with a traced ball) as DOT
     list         print the conformance registry (problems, radii, sizes)
     family       list the graph-family builders, or build + validate an instance
     ir           list/dump/validate/run the shipped probe-program IR
     synth        SAT-based probe-program synthesis + volume classification
     serve        query-serving daemon over a Unix-domain (or TCP) socket
     loadgen      load generator + verifier for the daemon *)

open Cmdliner

module Graph = Vc_graph.Graph
module Probe = Vc_model.Probe
module Lcl = Vc_lcl.Lcl
module Randomness = Vc_rng.Randomness
module TL = Vc_graph.Tree_labels
module LC = Volcomp.Leaf_coloring
module BT = Volcomp.Balanced_tree
module H = Volcomp.Hierarchical_thc
module Hy = Volcomp.Hybrid_thc
module Adv = Volcomp.Adversary_leaf
module Gap = Volcomp.Gap_example
module Runner = Vc_measure.Runner
module Experiments = Vc_measure.Experiments
module Disjointness = Vc_commcc.Disjointness
module Pool = Vc_exec.Pool
module Json = Vc_obs.Json
module Trace = Vc_obs.Trace
module Metrics = Vc_obs.Metrics
module Ir = Vc_ir.Ir
module Ir_exec = Vc_ir.Exec
module Ir_lib = Vc_ir.Library
module Family = Vc_family.Family
module F4 = Vc_family.Coloring4
module FM = Vc_family.Matching
module FI = Vc_family.Mis

(* --- shared flags ---------------------------------------------------------------
   Every flag more than one verb takes is settled here once: its name, type,
   default and help text.  Numeric flags parse through [pos_int] /
   [nonneg_int] / [pos_float], so an out-of-range value is a cmdliner usage
   error (exit 124) at parse time, not an exception from inside a run. *)

let bounded ~expected ok conv =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Fmt.str "invalid value '%s', expected %s" s expected))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let pos_int = bounded ~expected:"a positive integer" (fun n -> n >= 1) Arg.int
let nonneg_int = bounded ~expected:"a non-negative integer" (fun n -> n >= 0) Arg.int
let pos_float = bounded ~expected:"a positive number" (fun x -> x > 0.) Arg.float

let seed_term =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "Master seed: instances, trials, randomness and request plans all derive from \
           $(docv), so a run is reproduced by its seed.")

let quick_term =
  Arg.(
    value & flag
    & info [ "quick" ]
        ~doc:"Small profile: the shortened size ladders and each problem's quick instance sizes.")

let only_term =
  Arg.(
    value & opt (some string) None
    & info [ "only" ] ~docv:"SUBSTR"
        ~doc:
          "Only problems (with $(b,snap rm): store files) whose name contains $(docv) \
           (case-insensitive).")

let family_term =
  Arg.(
    value & opt (some string) None
    & info [ "family" ] ~docv:"SUBSTR"
        ~doc:
          "Only consider problems whose graph family contains $(docv) (case-insensitive; \
           families: tree, cycle, cubic, torus, d-regular, expander).")

let size_term =
  Arg.(
    value & opt (some pos_int) None
    & info [ "size" ] ~docv:"N"
        ~doc:
          "Instance size (defaults: $(b,ir run) 63, $(b,family build) 36, $(b,snap build) \
           every registry size).")

let origin_term =
  Arg.(
    value & opt (some nonneg_int) None
    & info [ "origin" ] ~docv:"V"
        ~doc:"Run from node $(docv) only (defaults: $(b,trace) node 0, $(b,ir run) every node).")

let workers_term =
  Arg.(
    value & opt nonneg_int 0
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Shard the daemon (with $(b,loadgen): the $(b,--spawn)ed one) across $(docv) \
           worker processes: requests are routed by a consistent hash of their (problem, \
           size, seed) session key, a dead worker is respawned and its warm sessions \
           rebuilt.  0 (the default) serves in-process.")

let metrics_term =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Collect the $(b,lib/obs) counters during the run and print them afterwards.")

let with_metrics enabled f =
  if not enabled then f ()
  else
    Metrics.with_enabled (fun () ->
        let r = f () in
        Fmt.pr "@.%a@." Metrics.pp ();
        r)

(* -j as given ([None] when absent); [jobs_term] is the resolved count. *)
let jobs_arg =
  Arg.(
    value & opt (some pos_int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of worker domains for the parallel runner (default: $(b,VOLCOMP_JOBS) if \
           set, else the recommended domain count).  Results are identical at any value.")

(* The default is resolved at parse time, so a bad VOLCOMP_JOBS is a usage
   error like a bad -j. *)
let jobs_term =
  let resolve = function
    | Some j -> Ok j
    | None -> ( try Ok (Pool.default_domains ()) with Invalid_argument msg -> Error msg)
  in
  Term.(cli_parse_result' (const resolve $ jobs_arg))

let with_jobs domains f =
  if domains > 1 then Pool.with_pool ~domains (fun pool -> f (Some pool)) else f None

(* Bare --json prints the document on stdout in place of the human output;
   --json PATH writes it to PATH and keeps the human output. *)
type json_out = Stdout | File of string

let json_term =
  let path =
    Arg.conv'
      ( (fun p -> Ok (File p)),
        fun ppf -> function Stdout -> Fmt.string ppf "stdout" | File p -> Fmt.string ppf p )
  in
  Arg.(
    value
    & opt ~vopt:(Some Stdout) (some path) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:
          "Emit the result as JSON: bare $(b,--json) prints it on stdout in place of the \
           human output; with $(docv) it is written to $(docv) and the human output kept.")

let human json = json <> Some Stdout

let emit_json json doc =
  match json with
  | None -> ()
  | Some Stdout -> print_string (Json.to_string doc ^ "\n")
  | Some (File path) ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Json.to_string doc);
          output_char oc '\n');
      Fmt.pr "wrote %s@." path

(* The registry entries whose name and family contain the filters. *)
let select_entries ~only ~family =
  List.filter
    (fun (e : Vc_check.Registry.entry) ->
      (match only with None -> true | Some f -> Experiments.contains e.name f)
      && match family with None -> true | Some f -> Experiments.contains e.family f)
    (Vc_check.Registry.all ())

(* --- experiments ---------------------------------------------------------- *)

let experiments_cmd =
  let deep =
    Arg.(
      value & flag
      & info [ "deep" ]
          ~doc:
            "Extend every ladder beyond the standard profile (multi-million-node instances; \
             ignored with $(b,--quick)).")
  in
  let filter =
    Arg.(
      value & pos 0 (some string) None
      & info [] ~docv:"FILTER"
          ~doc:
            "Only print reports whose title contains $(docv) (case-insensitive); exit 2, \
             listing the titles, when none does.")
  in
  let run quick deep filter jobs =
    let reports = with_jobs jobs (fun pool -> Experiments.all ?pool ~deep ~quick ()) in
    match Option.fold ~none:(Ok reports) ~some:(fun f -> Experiments.select f reports) filter with
    | Error msg ->
        Fmt.epr "experiments: %s@." msg;
        2
    | Ok selected ->
        List.iter (fun r -> Fmt.pr "%a@." Experiments.pp_report r) selected;
        if List.for_all Experiments.all_agree selected then 0 else 1
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Reproduce the paper's tables and figures.")
    Term.(const run $ quick_term $ deep $ filter $ jobs_term)

(* --- solve ----------------------------------------------------------------- *)

(* [--trace PATH] on solve: record the solver's run from node 0 as a
   JSONL transcript.  Solve instances are built ad hoc (not through the
   conformance registry), so these transcripts are for inspection and
   DOT ball rendering; `volcomp trace` records registry-backed
   transcripts that `volcomp trace --replay` can re-drive. *)
let write_solve_trace ~path ~problem ~n ~seed ~world ?randomness (solver : (_, _) Lcl.solver) =
  let header =
    Json.Obj
      [
        ("volcomp_trace", Json.Int 1);
        ("problem", Json.String ("solve:" ^ problem));
        ("solver", Json.String solver.Lcl.solver_name);
        ("size", Json.Int n);
        ("trial_seed", Json.String (Int64.to_string seed));
        ("origin", Json.Int 0);
      ]
  in
  let sink = Trace.to_file ~path ~header in
  Fun.protect
    ~finally:(fun () -> Trace.close sink)
    (fun () ->
      ignore (Probe.run ~world ?randomness ~trace:sink ~origin:0 solver.Lcl.solve : _ Probe.result));
  Fmt.pr "wrote transcript %s@." path

let solve_cmd =
  let problem =
    Arg.(
      required
      & pos 0 (some (enum
                       [ ("leafcoloring", `Leaf); ("balancedtree", `Bt); ("hthc", `Hthc);
                         ("hybrid", `Hybrid); ("sinkless", `Sinkless); ("coloring4", `C4);
                         ("matching", `Matching); ("mis", `Mis) ])) None
      & info [] ~docv:"PROBLEM"
          ~doc:
            "One of leafcoloring, balancedtree, hthc, hybrid, sinkless, coloring4, \
             matching, mis.")
  in
  let n = Arg.(value & opt pos_int 255 & info [ "n" ] ~doc:"Approximate instance size.") in
  let k = Arg.(value & opt int 2 & info [ "k" ] ~doc:"Hierarchy parameter for hthc/hybrid.") in
  let randomized =
    Arg.(value & flag & info [ "randomized"; "r" ] ~doc:"Use the randomized solver.")
  in
  let family =
    Arg.(
      value & opt (some string) None
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Graph family for coloring4/matching/mis/sinkless — torus, d-regular or \
             expander (defaults: coloring4 torus; matching/mis d-regular; sinkless its \
             original cubic builder).")
  in
  let trace =
    Arg.(
      value & opt (some string) None
      & info [ "trace" ] ~docv:"PATH"
          ~doc:"Also record the solver's run from node 0 as a JSONL transcript at $(docv).")
  in
  let run problem n seed k randomized family trace metrics jobs =
    let seed64 = Int64.of_int seed in
    with_metrics metrics @@ fun () ->
    with_jobs jobs @@ fun pool ->
    (* the one solve runner: the branches below only build an instance and
       pick a solver; randomized solvers draw from a stream seeded one past
       the instance seed *)
    let solve ~name ~problem ~graph ~input ~world (solver : (_, _) Lcl.solver) =
      let randomness =
        if solver.Lcl.randomized then
          Some (Randomness.create ~seed:(Int64.add seed64 1L) ~n:(Graph.n graph) ())
        else None
      in
      let stats, valid =
        Runner.solve_and_check ~world ~problem ~graph ~input ~solver ?randomness ?pool ()
      in
      Option.iter
        (fun path ->
          write_solve_trace ~path ~problem:name ~n:(Graph.n graph) ~seed:seed64 ~world
            ?randomness solver)
        trace;
      Fmt.pr "%s: %a@." solver.Lcl.solver_name Runner.pp_stats stats;
      Fmt.pr "assembled output %s@." (if valid then "VALID" else "INVALID");
      if valid then 0 else 1
    in
    (* [lib/family] problems share one unit-input shape; d is the regular
       family's degree (3 keeps greedy colouring inside the 4-palette) *)
    let family_graph fam ~d =
      match fam with
      | "torus" -> Some (Family.torus_of_size ~size:n ~seed:seed64)
      | "d-regular" -> Some (Family.regular_of_size ~d ~size:n ~seed:seed64)
      | "expander" -> Some (Family.expander_of_size ~size:n ~seed:seed64)
      | _ -> None
    in
    let solve_family ~name ~problem ~world_of ~default ~allowed graph_of solver =
      let fam = String.lowercase_ascii (Option.value family ~default) in
      match graph_of fam with
      | None ->
          Fmt.epr "solve: family %S not supported for this problem (allowed: %s)@." fam
            (String.concat ", " allowed);
          2
      | Some g ->
          solve ~name ~problem ~graph:g ~input:(fun _ -> ()) ~world:(world_of g) (solver fam)
    in
    match problem with
    | `Leaf ->
        let inst = LC.random_instance ~n ~seed:seed64 in
        solve ~name:"leafcoloring" ~problem:LC.problem ~graph:inst.LC.graph
          ~input:(LC.input inst) ~world:(LC.world inst)
          (if randomized then LC.solve_random_walk else LC.solve_distance)
    | `Bt ->
        let bits = max 4 (n / 4) in
        let pow2 = 1 lsl Volcomp.Probe_tree.log2_ceil bits in
        let disj = Disjointness.random_promise ~n:pow2 ~intersecting:(seed mod 2 = 1) ~seed:seed64 in
        let inst = BT.embed_disjointness disj in
        Fmt.pr "disjointness instance (disj = %b): %a@." (Disjointness.eval disj)
          Disjointness.pp disj;
        solve ~name:"balancedtree" ~problem:BT.problem ~graph:inst.BT.graph
          ~input:(BT.input inst) ~world:(BT.world inst) BT.solve_distance
    | `Hthc ->
        let inst, _ = H.hard_instance ~k ~target_n:n ~seed:seed64 in
        solve ~name:"hthc" ~problem:(H.problem ~k) ~graph:(H.graph inst) ~input:(H.input inst)
          ~world:(H.world inst)
          (if randomized then H.solve_waypoint ~k () else H.solve_deterministic ~k)
    | `Hybrid ->
        let inst, _ = Hy.hard_instance ~k ~target_n:n ~seed:seed64 in
        solve ~name:"hybrid" ~problem:(Hy.problem ~k) ~graph:inst.Hy.graph
          ~input:(Hy.input inst) ~world:(Hy.world inst)
          (if randomized then Hy.solve_volume_waypoint ~k () else Hy.solve_distance ~k)
    | `Sinkless ->
        solve_family ~name:"sinkless" ~problem:Volcomp.Sinkless.problem
          ~world_of:Volcomp.Sinkless.world ~default:"cubic" ~allowed:[ "cubic"; "d-regular" ]
          (function
            | "cubic" -> Some (Volcomp.Sinkless.random_cubic ~n ~seed:seed64)
            | "d-regular" as fam -> family_graph fam ~d:4
            | _ -> None)
          (fun _ -> Volcomp.Sinkless.solve_global)
    | `C4 ->
        solve_family ~name:"coloring4" ~problem:F4.problem ~world_of:F4.world ~default:"torus"
          ~allowed:[ "torus"; "d-regular" ]
          (fun fam -> if fam = "expander" then None else family_graph fam ~d:3)
          (fun fam -> if fam = "torus" then F4.solve_torus else F4.solve_greedy)
    | `Matching ->
        solve_family ~name:"matching" ~problem:FM.problem ~world_of:FM.world
          ~default:"d-regular" ~allowed:[ "torus"; "d-regular"; "expander" ]
          (family_graph ~d:4) (fun _ -> FM.solve_greedy)
    | `Mis ->
        solve_family ~name:"mis" ~problem:FI.problem ~world_of:FI.world ~default:"d-regular"
          ~allowed:[ "torus"; "d-regular"; "expander" ] (family_graph ~d:4)
          (fun _ -> FI.solve_greedy)
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:"Solve a random instance from every node and validate the assembled output.")
    Term.(
      const run $ problem $ n $ seed_term $ k $ randomized $ family $ trace $ metrics_term
      $ jobs_term)

(* --- adversary -------------------------------------------------------------- *)

let adversary_cmd =
  let n = Arg.(value & opt pos_int 300 & info [ "n" ] ~doc:"Claimed instance size.") in
  let impatient =
    Arg.(value & flag & info [ "impatient" ] ~doc:"Duel the hasty solver instead of the honest one.")
  in
  let run n impatient =
    let solver =
      if impatient then
        Lcl.solver ~name:"impatient" ~randomized:false (fun ctx ->
            let v0 = Probe.origin ctx in
            match Volcomp.Probe_tree.status ~pointers:LC.pointers ctx v0 with
            | TL.Leaf | TL.Inconsistent -> (Probe.input ctx v0).LC.color
            | TL.Internal -> TL.Red)
      else LC.solve_distance
    in
    let verdict = Adv.duel ~claimed_n:n solver in
    Fmt.pr "dueling '%s' against the Prop 3.13 adversary (claimed n = %d):@."
      solver.Lcl.solver_name n;
    Fmt.pr "  %a@." Adv.pp_verdict verdict;
    match verdict with Adv.Survived _ -> 0 | Adv.Fooled _ -> if impatient then 0 else 1
  in
  Cmd.v
    (Cmd.info "adversary" ~doc:"Run the interactive deterministic-volume adversary.")
    Term.(const run $ n $ impatient)

(* --- congest ----------------------------------------------------------------- *)

let congest_cmd =
  let depth =
    Arg.(value & opt pos_int 7 & info [ "depth" ] ~doc:"Tree depth (n = 2(2^{d+1}-1)).")
  in
  let bandwidth = Arg.(value & opt int 32 & info [ "bandwidth"; "B" ] ~doc:"Bits per edge per round.") in
  let run depth bandwidth =
    let inst = Gap.make ~depth ~seed:42L in
    let n = Graph.n inst.Gap.graph in
    let res = Gap.run_congest inst ~bandwidth in
    let leaf = (n / 2) - 1 in
    let query = Probe.run ~world:(Gap.world inst) ~origin:leaf Gap.solve.Lcl.solve in
    Fmt.pr "Example 7.6 on n = %d nodes:@." n;
    Fmt.pr "  query model: volume %d (O(log n))@." query.Probe.volume;
    Fmt.pr "  CONGEST (B=%d): %d rounds, max message %d bits, %d total bits@." bandwidth
      res.Vc_model.Congest.rounds res.Vc_model.Congest.max_message_bits
      res.Vc_model.Congest.total_bits;
    0
  in
  Cmd.v
    (Cmd.info "congest" ~doc:"Volume vs CONGEST rounds on the two-tree instance.")
    Term.(const run $ depth $ bandwidth)

(* --- check ----------------------------------------------------------------- *)

let check_cmd =
  let count =
    Arg.(
      value & opt pos_int 50
      & info [ "count" ] ~docv:"N" ~doc:"Mutation-fuzzing rounds per problem.")
  in
  (* the library's probes, then the serving layer's (the shard probe
     spawns a 4-worker tier of this very binary), then the synthesizer's *)
  let oracle_probes =
    Vc_check.Oracle.builtin
    @ Vc_serve.Conform.probes ~exe:Sys.executable_name ~workers:4
    @ [ Vc_synth.Classify.oracle_probe ]
  in
  let probes =
    Arg.(
      value & opt (some (list string)) None
      & info [ "probes" ] ~docv:"LIST"
          ~doc:
            (Fmt.str
               "Comma-separated oracle probes to run (of: %s); default all.  Skipped probes \
                are listed in the report and read null."
               (String.concat ", " (Vc_check.Oracle.names oracle_probes))))
  in
  let run seed count quick json only family probes metrics jobs =
    let entries = select_entries ~only ~family in
    (* blank items are dropped, so [--probes ,] is the empty selection
       the oracle rejects *)
    let only_probes =
      Option.map (fun ps -> List.filter (( <> ) "") (List.map String.trim ps)) probes
    in
    if entries = [] then begin
      Fmt.epr "check: no problem matches the filter@.";
      2
    end
    else
      let seed64 = Int64.of_int seed in
      with_metrics metrics @@ fun () ->
      match
        with_jobs jobs (fun pool ->
            match
              Vc_check.Oracle.run ?pool ~entries ~probes:oracle_probes ?only:only_probes
                ~seed:seed64 ~count ~quick ()
            with
            | report -> Ok report
            | exception Invalid_argument msg -> Error msg)
      with
      | Error msg ->
          Fmt.epr "check: %s@." msg;
          2
      | Ok report ->
        if human json then Fmt.pr "%a@." Vc_check.Report.pp report;
        emit_json json (Vc_check.Report.to_json report);
        if Vc_check.Report.ok report then 0
        else begin
          (* the seed is everything needed to reproduce the failure; the
             reference transcript makes the failing trial replayable offline *)
          Fmt.epr "reproduce with: volcomp check --seed %d --count %d%s@." seed count
            (if quick then " --quick" else "");
          List.iter
            (fun (p : Vc_check.Report.problem_report) ->
              if p.p_failures <> [] then begin
                let slug =
                  String.map
                    (fun c ->
                      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> c | _ -> '-')
                    (String.lowercase_ascii p.p_name)
                in
                let path = Fmt.str "check-failure-%s.trace.jsonl" slug in
                match
                  Vc_check.Oracle.record_trace ~entries ~seed:seed64 ~quick ~problem:p.p_name
                    ~origin:0 ~path ()
                with
                | Ok () -> Fmt.epr "wrote reference transcript %s (volcomp trace --replay)@." path
                | Error msg -> Fmt.epr "could not record transcript for %s: %s@." p.p_name msg
              end)
            report.Vc_check.Report.problems;
          1
        end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Differential conformance and fuzzing oracle over all registered problems.")
    Term.(
      const run $ seed_term $ count $ quick_term $ json_term $ only_term $ family_term $ probes
      $ metrics_term $ jobs_term)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let problem =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PROBLEM" ~doc:"Registry problem to record (e.g. leafcoloring).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o" ] ~docv:"PATH" ~doc:"Transcript path (default PROBLEM.trace.jsonl).")
  in
  let replay =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"PATH"
          ~doc:"Replay a recorded transcript instead of recording one.")
  in
  let run problem seed origin quick out replay =
    match (replay, problem) with
    | Some path, _ -> (
        match Vc_check.Oracle.replay_trace ~path () with
        | Ok () ->
            Fmt.pr "%s: replay identical@." path;
            0
        | Error msg ->
            Fmt.epr "%s: replay diverged: %s@." path msg;
            1)
    | None, None ->
        Fmt.epr "trace: expected a PROBLEM to record or --replay PATH@.";
        2
    | None, Some problem -> (
        let path = match out with Some p -> p | None -> problem ^ ".trace.jsonl" in
        match
          Vc_check.Oracle.record_trace ~seed:(Int64.of_int seed) ~quick ~problem
            ~origin:(Option.value origin ~default:0) ~path ()
        with
        | Ok () ->
            Fmt.pr "wrote transcript %s@." path;
            0
        | Error msg ->
            Fmt.epr "trace: %s@." msg;
            1)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a reference solver's probe transcript as JSONL, or replay one and assert \
          bit-identical behaviour.")
    Term.(const run $ problem $ seed_term $ origin_term $ quick_term $ out $ replay)

(* --- export ----------------------------------------------------------------- *)

let export_cmd =
  let problem =
    Arg.(
      required
      & pos 0 (some (enum [ ("leafcoloring", `Leaf); ("balancedtree", `Bt); ("hthc", `Hthc) ]))
          None
      & info [] ~docv:"PROBLEM" ~doc:"Instance family to render.")
  in
  let n = Arg.(value & opt pos_int 31 & info [ "n" ] ~doc:"Approximate instance size.") in
  let path = Arg.(value & opt string "instance.dot" & info [ "o" ] ~doc:"Output path.") in
  let run problem n seed path =
    let seed64 = Int64.of_int seed in
    let () =
      match problem with
      | `Leaf ->
          let inst = LC.random_instance ~n ~seed:seed64 in
          Vc_graph.Dot.to_file ~path ~name:"leafcoloring"
            ~node_label:(fun v -> Fmt.str "%a" TL.pp_color inst.LC.colors.(v))
            ~highlight:(fun v ->
              Vc_graph.Tree_labels.is_internal inst.LC.graph inst.LC.labels v)
            inst.LC.graph
      | `Bt ->
          let depth = max 2 (Volcomp.Probe_tree.log2_ceil (n + 1) - 1) in
          let inst = BT.balanced_instance ~depth in
          Vc_graph.Dot.to_file ~path ~name:"balancedtree" inst.BT.graph
      | `Hthc ->
          let inst = H.uniform_instance ~k:2 ~len:4 ~seed:seed64 in
          let a = H.graph_access inst in
          Vc_graph.Dot.to_file ~path ~name:"hthc"
            ~node_label:(fun v -> Fmt.str "L%d" (H.level a ~k:2 v))
            (H.graph inst)
    in
    Fmt.pr "wrote %s@." path;
    0
  in
  Cmd.v (Cmd.info "export" ~doc:"Export an instance as Graphviz DOT.")
    Term.(const run $ problem $ n $ seed_term $ path)

(* --- list ------------------------------------------------------------------- *)

let list_cmd =
  let run json =
    let entries = Vc_check.Registry.all () in
    if human json then begin
      Fmt.pr "%-28s %-10s %-10s %-24s %-14s %s@." "problem" "family" "radius" "sizes"
        "quick sizes" "ir";
      List.iter
        (fun (e : Vc_check.Registry.entry) ->
          let ints l = String.concat "," (List.map string_of_int l) in
          Fmt.pr "%-28s %-10s %-10s %-24s %-14s %b@." e.name e.family
            (if e.radius = max_int then "unbounded" else string_of_int e.radius)
            (ints e.sizes) (ints e.quick_sizes) e.ir)
        entries
    end;
    (* the JSON document is the serve protocol's list payload *)
    emit_json json (Vc_serve.Protocol.list_payload entries);
    0
  in
  Cmd.v
    (Cmd.info "list" ~doc:"Print the conformance registry: problems, radii, instance sizes.")
    Term.(const run $ json_term)

(* --- ir --------------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let ir_cmd =
  let action =
    Arg.(
      required
      & pos 0
          (some
             (enum
                [ ("list", `List); ("dump", `Dump); ("validate", `Validate); ("run", `Run) ]))
          None
      & info [] ~docv:"ACTION" ~doc:"One of list, dump, validate, run.")
  in
  let name_arg =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"PROGRAM" ~doc:"Shipped program name (see $(b,ir list)).")
  in
  let n =
    Arg.(
      value & opt pos_int 1024
      & info [ "n" ] ~docv:"N"
          ~doc:
            "Claimed instance size used to instantiate size-dependent programs \
             (cycle-coloring's walk length is $(b,rounds_needed n + 3)).")
  in
  let file =
    Arg.(
      value & opt (some string) None
      & info [ "file" ] ~docv:"PATH"
          ~doc:"Validate a JSON-encoded program from $(docv) instead of a shipped one.")
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Validate every shipped program.") in
  let run_ir action name n size seed origin file all json jobs =
    let fail fmt =
      Fmt.kstr
        (fun s ->
          Fmt.epr "ir: %s@." s;
          2)
        fmt
    in
    let unknown nm =
      fail "unknown program %S (known: %s)" nm (String.concat ", " (Ir_lib.names ()))
    in
    match action with
    | `List ->
        let progs =
          List.filter_map
            (fun nm -> Option.map (fun p -> (nm, p)) (Ir_lib.program ~name:nm ~n))
            (Ir_lib.names ())
        in
        if human json then begin
          Fmt.pr "%-20s %6s %5s %6s %9s@." "program" "instrs" "regs" "queues" "obs arity";
          List.iter
            (fun (nm, (p : Ir.program)) ->
              Fmt.pr "%-20s %6d %5d %6d %9d@." nm (Array.length p.Ir.code) p.Ir.n_regs
                p.Ir.n_queues p.Ir.obs_arity)
            progs
        end;
        emit_json json
          (Json.Obj
             [
               ( "programs",
                 Json.List
                   (List.map
                      (fun (nm, (p : Ir.program)) ->
                        Json.Obj
                          [
                            ("name", Json.String nm);
                            ("instructions", Json.Int (Array.length p.Ir.code));
                            ("regs", Json.Int p.Ir.n_regs);
                            ("queues", Json.Int p.Ir.n_queues);
                            ("obs_arity", Json.Int p.Ir.obs_arity);
                          ])
                      progs) );
             ]);
        0
    | `Dump -> (
        match name with
        | None -> fail "dump: expected a PROGRAM name"
        | Some nm -> (
            match Ir_lib.program ~name:nm ~n with
            | None -> unknown nm
            | Some p ->
                if human json then Fmt.pr "%a@." Ir.pp_program p;
                emit_json json (Ir.program_to_json p);
                0))
    | `Validate ->
        let of_name nm =
          match Ir_lib.program ~name:nm ~n with
          | None -> (nm, Error "unknown program")
          | Some p -> (nm, Ir.validate p)
        in
        let of_file path =
          ( path,
            match (try Ok (read_file path) with Sys_error e -> Error e) with
            | Error e -> Error e
            | Ok s -> (
                match Json.parse s with
                | Error e -> Error ("parse: " ^ e)
                | Ok j -> Result.map (fun (_ : Ir.program) -> ()) (Ir.program_of_json j)) )
        in
        let results =
          match (file, all, name) with
          | Some path, _, _ -> [ of_file path ]
          | None, true, _ -> List.map of_name (Ir_lib.names ())
          | None, false, Some nm -> [ of_name nm ]
          | None, false, None -> []
        in
        if results = [] then fail "validate: expected a PROGRAM, --all or --file PATH"
        else begin
          let ok = List.for_all (fun (_, r) -> r = Ok ()) results in
          if human json then
            List.iter
              (fun (nm, r) ->
                match r with
                | Ok () -> Fmt.pr "%s: ok@." nm
                | Error e -> Fmt.pr "%s: INVALID: %s@." nm e)
              results;
          emit_json json
            (Json.Obj
               [
                 ("ok", Json.Bool ok);
                 ( "programs",
                   Json.List
                     (List.map
                        (fun (nm, r) ->
                          Json.Obj
                            [
                              ("name", Json.String nm);
                              ("ok", Json.Bool (r = Ok ()));
                              ("error", match r with Ok () -> Json.Null | Error e -> Json.String e);
                            ])
                        results) );
               ]);
          if ok then 0 else 1
        end
    | `Run -> (
        match name with
        | None -> fail "run: expected a PROGRAM name"
        | Some nm -> (
            let size = Option.value size ~default:63 in
            match Ir_lib.instance ~name:nm ~size ~seed:(Int64.of_int seed) with
            | None -> unknown nm
            | Some (Ir_lib.Packed { spec; graph; input; world; solver; pp_output }) -> (
                let nn = Graph.n graph in
                match origin with
                | Some v when v >= nn ->
                    fail "origin %d out of range (instance has %d nodes)" v nn
                | _ ->
                    let origins =
                      match origin with
                      | Some v -> [| v |]
                      | None -> Array.init nn (fun v -> v)
                    in
                    let results =
                      with_jobs jobs (fun pool ->
                          Ir_exec.run_batch ?pool spec ~graph ~input ~origins)
                    in
                    (* every run is also an oracle check: the closure
                       solver must agree bit for bit under the program's
                       declared budget *)
                    let budget = spec.Ir.program.Ir.declared in
                    let identical = ref true in
                    Array.iteri
                      (fun i v ->
                        if Probe.run ~world ~budget ~origin:v solver.Lcl.solve <> results.(i)
                        then identical := false)
                      origins;
                    let agg f init = Array.fold_left f init results in
                    let max_of get = agg (fun m r -> max m (get r)) 0 in
                    let aborted =
                      agg (fun c (r : _ Probe.result) -> if r.Probe.aborted then c + 1 else c) 0
                    in
                    let total_queries = agg (fun s r -> s + r.Probe.queries) 0 in
                    let max_volume = max_of (fun r -> r.Probe.volume)
                    and max_distance = max_of (fun r -> r.Probe.distance)
                    and max_queries = max_of (fun r -> r.Probe.queries) in
                    if human json then begin
                      Fmt.pr "%s: n=%d size=%d seed=%d@." nm nn size seed;
                      (match origin with
                      | Some v ->
                          Fmt.pr "origin %d: output %a@." v
                            (Fmt.option ~none:(Fmt.any "aborted") pp_output)
                            results.(0).Probe.output
                      | None -> ());
                      Fmt.pr
                        "runs %d  aborted %d  max volume %d  max distance %d  max queries %d  \
                         total queries %d@."
                        (Array.length origins) aborted max_volume max_distance max_queries
                        total_queries;
                      Fmt.pr "oracle identical: %b@." !identical
                    end;
                    let at_origin =
                      match origin with
                      | Some v ->
                          [
                            ("origin", Json.Int v);
                            ( "output",
                              match results.(0).Probe.output with
                              | None -> Json.Null
                              | Some o -> Json.String (Fmt.str "%a" pp_output o) );
                          ]
                      | None -> []
                    in
                    emit_json json
                      (Json.Obj
                         ([
                            ("program", Json.String nm);
                            ("n", Json.Int nn);
                            ("size", Json.Int size);
                            ("seed", Json.Int seed);
                            ("runs", Json.Int (Array.length origins));
                            ("aborted", Json.Int aborted);
                            ("max_volume", Json.Int max_volume);
                            ("max_distance", Json.Int max_distance);
                            ("max_queries", Json.Int max_queries);
                            ("total_queries", Json.Int total_queries);
                            ("oracle_identical", Json.Bool !identical);
                          ]
                         @ at_origin));
                    if !identical then 0 else 1)))
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:
         "Inspect and execute the shipped probe-program IR: list the catalogue, dump a \
          program (text or JSON), validate programs (shipped or from a JSON file), or run \
          one through the batched executor with the closure solver as oracle.")
    Term.(
      const run_ir $ action $ name_arg $ n $ size_term $ seed_term $ origin_term $ file $ all
      $ json_term $ jobs_term)

(* --- snap ------------------------------------------------------------------- *)

let snap_cmd =
  let action =
    let actions = [ ("build", `Build); ("ls", `Ls); ("verify", `Verify); ("rm", `Rm) ] in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION" ~doc:"One of $(b,build), $(b,ls), $(b,verify), $(b,rm).")
  in
  let dir =
    Arg.(
      value & opt string "volcomp-snaps"
      & info [ "dir" ] ~docv:"DIR" ~doc:"Snapshot store directory.")
  in
  let run action dir only family quick size seed =
    let store = Vc_check.Registry.store ~dir in
    match action with
    | `Build ->
        let entries = select_entries ~only ~family in
        if entries = [] then begin
          Fmt.epr "snap build: no problem matches the filter@.";
          2
        end
        else begin
          let seed64 = Int64.of_int seed in
          let total = ref 0 in
          List.iter
            (fun (e : Vc_check.Registry.entry) ->
              let sizes =
                match size with
                | Some s -> [ s ]
                | None -> if quick then e.quick_sizes else e.sizes
              in
              List.iter
                (fun size ->
                  (* acquire with the store attached: a miss builds and
                     publishes, a hit is a no-op — build is idempotent *)
                  let n = e.acquire ~store ~size ~seed:seed64 () in
                  incr total;
                  Fmt.pr "%-28s size %-6d seed %Ld  n %d@." e.name size seed64 n)
                sizes)
            entries;
          Fmt.pr "%d snapshot(s) resident in %s@." !total dir;
          0
        end
    | `Ls ->
        let files = Vc_check.Registry.Store.files store in
        List.iter
          (fun path ->
            match Vc_snap.Snap.inspect ~path with
            | Ok h ->
                let bytes = (Unix.stat path).Unix.st_size in
                Fmt.pr "%-44s %-28s size %-6d seed %-20Ld n %-8d %d segment(s)  %d bytes@."
                  (Filename.basename path) h.Vc_snap.Snap.problem h.Vc_snap.Snap.size
                  h.Vc_snap.Snap.seed h.Vc_snap.Snap.n
                  (List.length h.Vc_snap.Snap.segments)
                  bytes
            | Error e ->
                Fmt.pr "%-44s INVALID: %s@." (Filename.basename path)
                  (Vc_snap.Snap.error_to_string e))
          files;
        Fmt.pr "%d file(s) in %s@." (List.length files) dir;
        0
    | `Verify ->
        let files = Vc_check.Registry.Store.files store in
        let bad = ref 0 in
        List.iter
          (fun path ->
            match Vc_snap.Snap.verify ~path with
            | Ok h ->
                Fmt.pr "%-44s ok  (%s, %d segment(s))@." (Filename.basename path)
                  h.Vc_snap.Snap.problem
                  (List.length h.Vc_snap.Snap.segments)
            | Error e ->
                incr bad;
                Fmt.pr "%-44s FAIL: %s@." (Filename.basename path)
                  (Vc_snap.Snap.error_to_string e))
          files;
        if !bad = 0 then begin
          Fmt.pr "all %d file(s) verify@." (List.length files);
          0
        end
        else begin
          Fmt.epr "%d of %d file(s) failed verification@." !bad (List.length files);
          1
        end
    | `Rm ->
        let files =
          List.filter
            (fun path ->
              match only with
              | None -> true
              | Some f -> Experiments.contains (Filename.basename path) f)
            (Vc_check.Registry.Store.files store)
        in
        List.iter
          (fun path ->
            match Sys.remove path with
            | () -> Fmt.pr "removed %s@." path
            | exception Sys_error msg -> Fmt.epr "rm: %s@." msg)
          files;
        Fmt.pr "%d file(s) removed@." (List.length files);
        0
  in
  Cmd.v
    (Cmd.info "snap"
       ~doc:
         "Manage the instance snapshot store: $(b,build) snapshots for registry problems, \
          $(b,ls) and $(b,verify) (full byte-level re-checksum) resident files, $(b,rm) \
          stale ones.  The same store plugs into $(b,volcomp serve --snap-dir).")
    Term.(
      const run $ action $ dir $ only_term $ family_term $ quick_term $ size_term $ seed_term)

(* --- family ------------------------------------------------------------------ *)

let family_cmd =
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("list", `List); ("build", `Build) ])) None
      & info [] ~docv:"ACTION" ~doc:"One of $(b,list), $(b,build).")
  in
  let fam_name =
    Arg.(
      value & pos 1 (some string) None
      & info [] ~docv:"FAMILY" ~doc:"Family to build (see $(b,family list)).")
  in
  let problems_of fam =
    List.filter
      (fun (e : Vc_check.Registry.entry) -> e.family = fam)
      (Vc_check.Registry.all ())
  in
  let run action fam_name size seed json jobs =
    match action with
    | `List ->
        if human json then
          List.iter
            (fun (i : Family.info) ->
              Fmt.pr "%-12s min size %-4d max degree %-3d %s@." i.Family.f_name
                i.Family.f_min_size i.Family.f_max_degree i.Family.f_description;
              List.iter
                (fun (e : Vc_check.Registry.entry) -> Fmt.pr "  %s@." e.name)
                (problems_of i.Family.f_name))
            Family.all;
        let fams =
          List.map
            (fun (i : Family.info) ->
              Json.Obj
                [
                  ("name", Json.String i.Family.f_name);
                  ("description", Json.String i.Family.f_description);
                  ("min_size", Json.Int i.Family.f_min_size);
                  ("max_degree", Json.Int i.Family.f_max_degree);
                  ( "problems",
                    Json.List
                      (List.map
                         (fun (e : Vc_check.Registry.entry) -> Json.String e.name)
                         (problems_of i.Family.f_name)) );
                ])
            Family.all
        in
        emit_json json (Json.Obj [ ("families", Json.List fams) ]);
        0
    | `Build -> (
        match fam_name with
        | None ->
            Fmt.epr "family build: expected a FAMILY (see $(b,volcomp family list))@.";
            2
        | Some nm -> (
            match Family.find nm with
            | None ->
                Fmt.epr "family: unknown family %S (known: %s)@." nm
                  (String.concat ", "
                     (List.map (fun (i : Family.info) -> i.Family.f_name) Family.all));
                2
            | Some info ->
                let size = Option.value size ~default:36 in
                let seed64 = Int64.of_int seed in
                let g = info.Family.f_build ~size ~seed:seed64 in
                let entries = problems_of info.Family.f_name in
                (* each registry entry rebuilds through its own (size, seed)
                   mapping — RegularColoring4's d = 3 instance is smaller
                   than the family's d = 4 flagship, hence per-problem n *)
                let rows =
                  with_jobs jobs (fun pool ->
                      List.map
                        (fun (e : Vc_check.Registry.entry) ->
                          let trial = e.make ~size ~seed:seed64 () in
                          let outcomes =
                            trial.Vc_check.Registry.run_solvers ?pool ()
                          in
                          (e, trial.Vc_check.Registry.t_n, outcomes))
                        entries)
                in
                let valid outcomes =
                  List.for_all
                    (fun (o : Vc_check.Registry.solver_outcome) -> o.Vc_check.Registry.valid)
                    outcomes
                in
                if human json then begin
                  Fmt.pr "family %s: n %d, max degree %d (size %d, seed %Ld)@."
                    info.Family.f_name (Graph.n g) (Graph.max_degree g) size seed64;
                  List.iter
                    (fun ((e : Vc_check.Registry.entry), n, outcomes) ->
                      List.iter
                        (fun (o : Vc_check.Registry.solver_outcome) ->
                          Fmt.pr "%-28s n %-6d %-24s volume %-6d distance %-4d %s@." e.name n
                            o.Vc_check.Registry.solver
                            o.Vc_check.Registry.stats.Runner.max_volume
                            o.Vc_check.Registry.stats.Runner.max_distance
                            (if o.Vc_check.Registry.valid then "VALID" else "INVALID"))
                        outcomes)
                    rows
                end;
                let problems =
                  List.map
                    (fun ((e : Vc_check.Registry.entry), n, outcomes) ->
                      Json.Obj
                        [
                          ("name", Json.String e.name);
                          ("n", Json.Int n);
                          ("valid", Json.Bool (valid outcomes));
                          ( "solvers",
                            Json.List
                              (List.map
                                 (fun (o : Vc_check.Registry.solver_outcome) ->
                                   Json.Obj
                                     [
                                       ("name", Json.String o.Vc_check.Registry.solver);
                                       ("valid", Json.Bool o.Vc_check.Registry.valid);
                                       ( "max_volume",
                                         Json.Int o.Vc_check.Registry.stats.Runner.max_volume );
                                       ( "max_distance",
                                         Json.Int o.Vc_check.Registry.stats.Runner.max_distance );
                                     ])
                                 outcomes) );
                        ])
                    rows
                in
                emit_json json
                  (Json.Obj
                     [
                       ("family", Json.String info.Family.f_name);
                       ("size", Json.Int size);
                       ("seed", Json.String (Int64.to_string seed64));
                       ("n", Json.Int (Graph.n g));
                       ("max_degree", Json.Int (Graph.max_degree g));
                       ("problems", Json.List problems);
                     ]);
                if List.for_all (fun (_, _, outcomes) -> valid outcomes) rows then 0 else 1))
  in
  Cmd.v
    (Cmd.info "family"
       ~doc:
         "Graph families beyond paths and trees: $(b,list) the builders and their \
          registered problems, or $(b,build) a seeded instance and run + validate every \
          problem of the family on it.")
    Term.(const run $ action $ fam_name $ size_term $ seed_term $ json_term $ jobs_term)

(* --- serve ------------------------------------------------------------------- *)

let socket_term =
  Arg.(
    value & opt string "volcomp.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let tcp_term =
  Arg.(
    value & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Use TCP on 127.0.0.1:$(docv) instead of the Unix-domain socket.")

let serve_cmd =
  let cache =
    Arg.(
      value & opt pos_int 8
      & info [ "cache" ] ~docv:"N" ~doc:"Capacity of the warm (problem, size, seed) session cache.")
  in
  let queue_depth =
    Arg.(
      value & opt pos_int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Bound on accepted-but-undispatched requests; beyond it the daemon sheds load \
                with structured $(b,overloaded) errors.")
  in
  let worker =
    Arg.(
      value & flag
      & info [ "worker" ]
          ~doc:
            "Internal: run as a supervisor's worker, serving the connection on stdin until \
             EOF.  Used by $(b,--workers); not meant to be invoked by hand.")
  in
  let snap_dir =
    Arg.(
      value & opt (some string) None
      & info [ "snap-dir" ] ~docv:"DIR"
          ~doc:
            "Snapshot store directory: session cache misses load instances by mmap from \
             $(docv) (populating it on first build) instead of rebuilding, and with \
             $(b,--workers) every shard worker shares the same store — including post-crash \
             re-warms.")
  in
  let run socket tcp cache queue_depth workers worker snap_dir explicit_jobs jobs =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* the daemon always accounts: request counters and latency
       histograms feed the stats request and the loadgen report *)
    Metrics.set_enabled true;
    let store = Option.map (fun dir -> Vc_check.Registry.store ~dir) snap_dir in
    if worker then begin
      let handler = Vc_serve.Handler.create ~cache_capacity:cache ?store () in
      ignore
        (with_jobs jobs (fun pool ->
             Vc_serve.Server.run_conn ~handler ?pool ~queue_depth ~fd:Unix.stdin ())
          : int);
      0
    end
    else begin
      let listen =
        match tcp with
        | Some port -> Vc_serve.Server.listen_tcp ~port
        | None -> Vc_serve.Server.listen_unix ~path:socket
      in
      (match tcp with
      | Some port -> Fmt.pr "volcomp serve: listening on 127.0.0.1:%d@." port
      | None -> Fmt.pr "volcomp serve: listening on %s@." socket);
      let answered =
        if workers > 0 then begin
          Fmt.pr "volcomp serve: %d shard worker(s)@." workers;
          let spawn =
            (* shard workers run single-domain unless -j says otherwise *)
            Vc_serve.Supervisor.exec_spawn
              ~jobs:(Option.value explicit_jobs ~default:1)
              ?snap_dir ~cache ~queue_depth Sys.executable_name
          in
          Vc_serve.Supervisor.run ~workers ~cache_capacity:cache ~queue_depth ~spawn
            ~listen ()
        end
        else
          with_jobs jobs (fun pool ->
              Vc_serve.Server.run
                ~handler:(Vc_serve.Handler.create ~cache_capacity:cache ?store ())
                ?pool ~queue_depth ~listen ())
      in
      if tcp = None then (try Unix.unlink socket with Unix.Unix_error _ -> ());
      Fmt.pr "volcomp serve: answered %d request(s)@." answered;
      0
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve solve/probe/trace/list/stats queries over a socket, with a warm session \
          cache, request batching across worker domains, per-request deadlines, explicit \
          load shedding, and optional multi-process sharding ($(b,--workers)).")
    Term.(
      const run $ socket_term $ tcp_term $ cache $ queue_depth $ workers_term $ worker
      $ snap_dir $ jobs_arg $ jobs_term)

(* --- loadgen ----------------------------------------------------------------- *)

let loadgen_cmd =
  let module Loadgen = Vc_serve.Loadgen in
  let spawn =
    Arg.(
      value & flag
      & info [ "spawn" ]
          ~doc:"Start a private $(b,volcomp serve) on the socket, drive it, shut it down.")
  in
  let conns =
    Arg.(
      value & opt (some pos_int) None
      & info [ "conns"; "clients" ] ~docv:"N"
          ~doc:
            "Connections to drive the daemon over (default: one per shard the server \
             reports, 1 for a single-process server).")
  in
  let rate =
    Arg.(
      value & opt (some pos_float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Requests arrive as a Poisson process at $(docv) requests/s (exponential \
             inter-arrivals) regardless of reply speed, fanned out round-robin over the \
             connections, and latency runs from the scheduled arrival.  Without it the loop \
             is closed: each connection sends its next request as soon as its last one is \
             answered.")
  in
  let requests =
    Arg.(
      value & opt nonneg_int 64 & info [ "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let mix =
    let spec =
      Arg.conv
        ( (fun s -> Result.map_error (fun m -> `Msg m) (Loadgen.parse_mix s)),
          Fmt.(list ~sep:(any ",") (pair ~sep:(any ":") string int)) )
    in
    Arg.(
      value & opt spec Loadgen.default_mix
      & info [ "mix" ] ~docv:"SPEC"
          ~doc:"Weighted request mix, e.g. $(b,probe:4,solve:1) (kinds: solve, probe, trace, \
                warm, list, stats).")
  in
  let deadline =
    Arg.(
      value & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:"Attach this deadline to every request (0 expires deterministically).")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the byte-identity check against in-process computation.")
  in
  let prewarm =
    Arg.(
      value & flag
      & info [ "prewarm" ]
          ~doc:
            "Issue a $(b,warm) query for every session in the plan before the measured \
             phase, so instance construction is never charged to the first unlucky request \
             of a session.  The summary reports how many sessions were cold.")
  in
  let run socket tcp spawn spawn_workers conns requests rate mix seed deadline no_verify
      prewarm json =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let addr =
      match tcp with
      | Some port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)
      | None -> Unix.ADDR_UNIX socket
    in
    let server_pid =
      if not spawn then None
      else begin
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let args =
          (match tcp with
          | Some port -> [ Sys.executable_name; "serve"; "--tcp"; string_of_int port ]
          | None -> [ Sys.executable_name; "serve"; "--socket"; socket ])
          @ if spawn_workers > 0 then [ "--workers"; string_of_int spawn_workers ] else []
        in
        let pid =
          Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin devnull
            devnull
        in
        Unix.close devnull;
        (* loadgen's connects wait for the daemon to accept *)
        Some pid
      end
    in
    let result =
      Loadgen.run ~addr
        {
          Loadgen.conns;
          requests;
          mix;
          seed = Int64.of_int seed;
          rate;
          deadline_ms = deadline;
          verify = not no_verify;
          shutdown = spawn;
          prewarm;
        }
    in
    (match (result, server_pid) with
    | Ok _, Some pid ->
        (* loadgen already sent shutdown; reap the daemon *)
        ignore (Unix.waitpid [] pid)
    | Error _, Some pid ->
        (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
    | _, None -> ());
    if spawn && tcp = None then (try Unix.unlink socket with Unix.Unix_error _ -> ());
    match result with
    | Error msg ->
        Fmt.epr "loadgen: %s@." msg;
        1
    | Ok s ->
        if human json then Fmt.pr "%a" Loadgen.pp_summary s;
        emit_json json (Loadgen.summary_to_json s);
        if s.Loadgen.s_mismatches = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a serving daemon with a deterministic request mix — closed-loop by default, \
          Poisson arrivals with $(b,--rate) — verify every reply byte-for-byte against \
          in-process computation, and report achieved throughput, errors by code and \
          p50/p95/p99 latency per request kind.")
    Term.(
      const run $ socket_term $ tcp_term $ spawn $ workers_term $ conns $ requests $ rate
      $ mix $ seed_term $ deadline $ no_verify $ prewarm $ json_term)

(* --- synth ------------------------------------------------------------------ *)

let synth_cmd =
  let module Classify = Vc_synth.Classify in
  let module Encode = Vc_synth.Encode in
  let problem =
    Arg.(
      value & opt (some string) None
      & info [ "problem" ] ~docv:"NAME"
          ~doc:
            "Problem universe to synthesize for (degree-parity, cycle-coloring, \
             leaf-coloring; registry names also accepted); default: all three.")
  in
  let volume =
    Arg.(
      value & opt (some int) None
      & info [ "volume" ] ~docv:"V"
          ~doc:
            "Synthesize at exactly this volume budget.  Without it, descend the ladder \
             from the known-feasible budget down to the first UNSAT.")
  in
  let radius =
    Arg.(
      value & opt (some int) None
      & info [ "radius" ] ~docv:"R" ~doc:"Override the spec's distance cap.")
  in
  let sizes =
    Arg.(
      value & opt (some (list int)) None
      & info [ "sizes" ] ~docv:"LIST"
          ~doc:
            "Comma-separated node counts: keep only corpus instances with that many \
             nodes (default: the full pinned corpus).")
  in
  let shuffle =
    Arg.(
      value & opt int 0
      & info [ "shuffle" ] ~docv:"N"
          ~doc:
            "Deterministically shuffle the CEGIS corpus order ($(b,0) keeps the pinned \
             order).  Verdicts must not depend on it; witnesses and iteration counts may.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:
            "Replay the DRUP proof log on every UNSAT verdict; exit non-zero if a \
             replay rejects its proof.")
  in
  let expect =
    Arg.(
      value
      & opt (some (enum [ ("sat", true); ("unsat", false) ])) None
      & info [ "expect" ] ~docv:"VERDICT"
          ~doc:"Exit non-zero unless every verdict is $(docv) (sat or unsat).")
  in
  let dimacs_out =
    Arg.(
      value & opt (some string) None
      & info [ "dimacs-out" ] ~docv:"PATH"
          ~doc:
            "Write the final CNF as DIMACS to $(docv) for external cross-checking \
             (single $(b,--volume) runs only).")
  in
  let run problem volume radius sizes shuffle certify expect json dimacs_out =
    let all = Classify.specs () in
    let specs =
      match problem with
      | None -> all
      | Some p -> ( match Classify.find p with Some s -> [ s ] | None -> [])
    in
    if specs = [] then begin
      Fmt.epr "synth: unknown problem %S (known: %s)@."
        (Option.value problem ~default:"")
        (String.concat ", " (List.map (fun s -> s.Classify.s_name) all));
      2
    end
    else begin
      (* --sizes trims the pinned corpus; --shuffle permutes what is left.
         Both act on the certificate family only — the encoding and the
         verdict logic are untouched, so a verdict flip under either flag
         is a finding about the corpus, not a bug knob. *)
      let restrict (s : Classify.spec) =
        let s = match radius with None -> s | Some r -> { s with Classify.s_radius = r } in
        let (Encode.U u) = s.Classify.s_universe in
        let keep (_, g, _) =
          match sizes with None -> true | Some szs -> List.mem (Graph.n g) szs
        in
        let insts = Array.of_list (List.filter keep (Array.to_list u.instances)) in
        if shuffle <> 0 then begin
          let rng = Vc_rng.Splitmix.create (Int64.of_int shuffle) in
          for i = Array.length insts - 1 downto 1 do
            let j = Vc_rng.Splitmix.int rng ~bound:(i + 1) in
            let t = insts.(i) in
            insts.(i) <- insts.(j);
            insts.(j) <- t
          done
        end;
        { s with Classify.s_universe = Encode.U { u with instances = insts } }
      in
      let outcome =
        List.fold_left
          (fun acc spec ->
            match acc with
            | Error _ as e -> e
            | Ok verdicts -> (
                let spec = restrict spec in
                let (Encode.U u) = spec.Classify.s_universe in
                if Array.length u.instances = 0 then
                  Error
                    (Printf.sprintf "%s: no corpus instance matches --sizes"
                       spec.Classify.s_name)
                else
                  match volume with
                  | Some v ->
                      Result.map
                        (fun vd -> verdicts @ [ vd ])
                        (Classify.run ~certify ?dimacs_out spec ~volume:v)
                  | None ->
                      Result.map (fun vs -> verdicts @ vs)
                        (Classify.ladder ~certify spec)))
          (Ok []) specs
      in
      match outcome with
      | Error msg ->
          Fmt.epr "synth: %s@." msg;
          2
      | Ok verdicts ->
          if human json then List.iter (fun v -> Fmt.pr "%a@." Classify.pp_verdict v) verdicts;
          emit_json json (Classify.table_json verdicts);
          let certified =
            List.for_all (fun v -> v.Classify.v_report.Encode.certified <> Some false) verdicts
            || begin
                 Fmt.epr "synth: DRUP certification failed (reason in the verdict line)@.";
                 false
               end
          in
          let as_expected =
            match expect with
            | None -> true
            | Some want ->
                List.for_all (fun v -> v.Classify.v_sat = want) verdicts
                || begin
                     Fmt.epr "synth: verdict mismatch (expected %s)@."
                       (if want then "sat" else "unsat");
                     false
                   end
          in
          if as_expected && certified then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "SAT-based probe-program synthesis: find a minimal-volume IR program passing \
          each problem's checker on its certificate corpus, or prove the budget \
          infeasible.")
    Term.(
      const run $ problem $ volume $ radius $ sizes $ shuffle $ certify $ expect $ json_term
      $ dimacs_out)

let () =
  let doc = "Volume complexity of local graph problems (Rosenbaum & Suomela, PODC 2020)" in
  let info = Cmd.info "volcomp" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            experiments_cmd;
            solve_cmd;
            adversary_cmd;
            congest_cmd;
            check_cmd;
            trace_cmd;
            export_cmd;
            list_cmd;
            family_cmd;
            ir_cmd;
            synth_cmd;
            snap_cmd;
            serve_cmd;
            loadgen_cmd;
          ]))
