(* Tests for the conformance subsystem itself: the generator kit, the
   mutation fuzzer's classification, and end-to-end oracle runs. *)

module Graph = Vc_graph.Graph
module Lcl = Vc_lcl.Lcl
module TL = Vc_graph.Tree_labels
module Probe = Vc_model.Probe
module Gen = Vc_check.Gen
module Mutate = Vc_check.Mutate
module Registry = Vc_check.Registry
module Oracle = Vc_check.Oracle
module Report = Vc_check.Report
module Json = Vc_obs.Json
module LC = Volcomp.Leaf_coloring

let graph_equal a b =
  Graph.n a = Graph.n b
  && List.for_all
       (fun v ->
         Graph.id a v = Graph.id b v
         && Graph.degree a v = Graph.degree b v
         && List.for_all
              (fun p -> Graph.neighbor a v p = Graph.neighbor b v p)
              (List.init (Graph.degree a v) (fun i -> i + 1)))
       (Graph.nodes a)

(* --- the generator kit ---------------------------------------------------- *)

let test_build_deterministic () =
  List.iter
    (fun shape ->
      let spec = { Gen.shape; size = 24; g_seed = 77L } in
      Alcotest.(check bool)
        (Format.asprintf "%a deterministic" Gen.pp_shape shape)
        true
        (graph_equal (Gen.build spec) (Gen.build spec)))
    Gen.all_shapes

let test_build_well_formed () =
  (* Graph.create already validates symmetry; what build adds is size
     clamping, connectivity and the degree bound of the paper's model *)
  List.iter
    (fun shape ->
      List.iter
        (fun size ->
          let g = Gen.build { Gen.shape; size; g_seed = 5L } in
          let msg what = Format.asprintf "%a size=%d %s" Gen.pp_shape shape size what in
          Alcotest.(check bool) (msg "nonempty") true (Graph.n g >= 1);
          Alcotest.(check bool) (msg "connected") true (Graph.is_connected g);
          (* Cubic is near-cubic: odd sizes patch in one extra edge *)
          Alcotest.(check bool) (msg "degree <= 4") true (Graph.max_degree g <= 4))
        [ 1; 8; 33 ])
    Gen.all_shapes

let qcheck_spec_sizes =
  QCheck.Test.make ~count:50 ~name:"Gen.spec stays within its size bounds"
    (Gen.spec ~min_size:8 ~max_size:40 ())
    (fun s -> s.Gen.size >= 8 && s.Gen.size <= 40 && Graph.n (Gen.build s) >= 1)

let test_colored_tree_deterministic_and_solvable () =
  let a = Gen.colored_tree ~n:33 ~seed:9L in
  let b = Gen.colored_tree ~n:33 ~seed:9L in
  Alcotest.(check bool) "same graph" true (graph_equal a.LC.graph b.LC.graph);
  Alcotest.(check bool) "same inputs" true
    (List.for_all (fun v -> LC.input a v = LC.input b v) (Graph.nodes a.LC.graph));
  (* the generated labeling is an actual Definition 3.1 instance: the
     deterministic solver produces a checker-valid output on it *)
  let world = LC.world a in
  let out =
    Array.init (Graph.n a.LC.graph) (fun v ->
        match (Probe.run ~world ~origin:v LC.solve_distance.Lcl.solve).Probe.output with
        | Some c -> c
        | None -> TL.Red)
  in
  Alcotest.(check bool) "solvable to validity" true
    (Lcl.is_valid LC.problem a.LC.graph ~input:(LC.input a) ~output:(fun v -> out.(v)))

let test_pseudo_tree_builds () =
  let inst = Gen.pseudo_tree ~cycle_len:8 ~seed:3L in
  Alcotest.(check bool) "at least the cycle" true (Graph.n inst.LC.graph >= 8);
  Alcotest.(check bool) "connected" true (Graph.is_connected inst.LC.graph)

(* --- mutation classification ----------------------------------------------- *)

(* a hand-rolled LCL: every node must output its own identifier.  With
   radius 0 a mutation at [site] can only create a violation at [site]
   itself, which pins down all three outcome classes exactly. *)
let identity_problem =
  {
    Lcl.name = "identity";
    radius = 0;
    valid_at =
      (fun g ~input:_ ~output v ->
        if output v = Graph.id g v then Ok () else Error "not the id");
  }

let test_mutate_classification () =
  let g = Vc_graph.Builder.path 7 in
  let input _ = () in
  let run kind m = Mutate.check ~problem:identity_problem ~graph:g ~input ~kind m in
  let good =
    run "noop" { Mutate.site = 3; input = None; output = (fun v -> Graph.id g v) }
  in
  Alcotest.(check bool) "valid mutant accepted" false good.Mutate.rejected;
  Alcotest.(check bool) "accepted is vacuously in radius" true good.Mutate.in_radius;
  let bad =
    run "corrupt"
      { Mutate.site = 3; input = None; output = (fun v -> if v = 3 then -1 else Graph.id g v) }
  in
  Alcotest.(check bool) "invalid mutant rejected" true bad.Mutate.rejected;
  Alcotest.(check bool) "violation within radius of the site" true bad.Mutate.in_radius;
  (* a rejection whose violation is far from the claimed site must be
     flagged: that is the checker-locality property the fuzzer polices *)
  let misattributed =
    run "corrupt-far"
      { Mutate.site = 0; input = None; output = (fun v -> if v = 6 then -1 else Graph.id g v) }
  in
  Alcotest.(check bool) "far mutant still rejected" true misattributed.Mutate.rejected;
  Alcotest.(check bool) "flagged out of radius" false misattributed.Mutate.in_radius

let test_reference_failure_shape () =
  let o = Mutate.reference_failure ~msg:"solver produced junk" in
  Alcotest.(check string) "kind" "reference" o.Mutate.kind;
  Alcotest.(check int) "no site" (-1) o.Mutate.site;
  Alcotest.(check bool) "not a rejection" false o.Mutate.rejected

(* --- the oracle end to end -------------------------------------------------- *)

let test_oracle_quick_conformant () =
  let report = Oracle.run ~seed:11L ~count:6 ~quick:true () in
  Alcotest.(check int) "every registered problem checked"
    (List.length (Registry.all ()))
    (List.length report.Report.problems);
  Alcotest.(check bool) "report ok" true (Report.ok report);
  List.iter
    (fun p ->
      Alcotest.(check (list string)) (p.Report.p_name ^ ": no failures") [] p.Report.p_failures;
      Alcotest.(check (option (option bool)))
        (p.Report.p_name ^ ": merge consistent")
        (Some (Some true))
        (List.assoc_opt "merge" p.Report.p_verdicts);
      Alcotest.(check bool)
        (p.Report.p_name ^ ": fuzzer rejected at least one mutant")
        true
        (Report.mutations_rejected p >= 1))
    report.Report.problems

let test_oracle_deterministic () =
  (* same seed, same verdicts, bit-identical JSON *)
  let entries = List.filteri (fun i _ -> i < 3) (Registry.all ()) in
  let r1 = Oracle.run ~entries ~seed:5L ~count:4 ~quick:true () in
  let r2 = Oracle.run ~entries ~seed:5L ~count:4 ~quick:true () in
  Alcotest.(check string) "bit-identical JSON" (Json.to_string (Report.to_json r1))
    (Json.to_string (Report.to_json r2))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* The "probes" object of the report's only problem, parsed back. *)
let probes_json report =
  match Json.parse (Json.to_string (Report.to_json report)) with
  | Error msg -> Alcotest.fail msg
  | Ok json -> (
      match Option.bind (Json.member json "problems") (function
              | Json.List [ p ] -> Json.member p "probes"
              | _ -> None)
      with
      | Some (Json.Obj kvs) -> kvs
      | _ -> Alcotest.fail "no probes object")

let test_report_json_shape () =
  let report = Oracle.run ~entries:[ List.hd (Registry.all ()) ] ~seed:3L ~count:3 ~quick:true () in
  let json = Json.to_string (Report.to_json report) in
  List.iter
    (fun key -> Alcotest.(check bool) (key ^ " present") true (contains json key))
    [ "\"seed\""; "\"count\""; "\"ok\""; "\"problems\""; "\"solvers\""; "\"mutations\""; "\"by_kind\"" ];
  Alcotest.(check (list string))
    "probes keys are the probe list's names"
    (List.map (fun (p : Oracle.probe) -> p.name) Oracle.builtin)
    (List.map fst (probes_json report))

(* --- probe selection ----------------------------------------------------------- *)

let test_only_ir () =
  let e = List.find (fun (e : Registry.entry) -> e.ir) (Registry.all ()) in
  let report = Oracle.run ~entries:[ e ] ~only:[ "IR" ] ~seed:3L ~count:3 ~quick:true () in
  let p = List.hd report.Report.problems in
  List.iter
    (fun (name, v) ->
      Alcotest.(check (option bool)) (name ^ " verdict") (if name = "ir" then Some true else None) v)
    p.Report.p_verdicts;
  Alcotest.(check (list string))
    "everything else skipped"
    (List.filter (fun n -> n <> "ir") (Oracle.names Oracle.builtin))
    p.Report.p_probes_skipped;
  Alcotest.(check bool) "report ok" true (Report.ok report)

let test_bad_selection_rejected () =
  List.iter
    (fun (what, only) ->
      match Oracle.run ~entries:[] ~only ~seed:3L ~count:1 ~quick:true () with
      | _ -> Alcotest.failf "%s selection accepted" what
      | exception Invalid_argument msg ->
          Alcotest.(check bool) (what ^ ": names the known probes") true (contains msg "replay"))
    [ ("unknown", [ "lazy"; "nope" ]); ("empty", []) ]

let test_failing_probes_reported () =
  let e = List.hd (Registry.all ()) in
  let size = List.hd e.quick_sizes in
  let probes =
    Oracle.builtin
    @ [
        { Oracle.name = "boom"; first_trial_only = false; run = (fun _ -> Some (Error "boom")) };
        { Oracle.name = "raises"; first_trial_only = false; run = (fun _ -> failwith "kaput") };
      ]
  in
  let report =
    Oracle.run ~entries:[ e ] ~probes ~only:[ "boom"; "raises" ] ~seed:3L ~count:3 ~quick:true ()
  in
  let p = List.hd report.Report.problems in
  Alcotest.(check int) "one trial" 1 p.Report.p_instances;
  Alcotest.(check bool) "report not ok" false (Report.ok report);
  Alcotest.(check (list string))
    "uniform failure strings"
    [
      Printf.sprintf "boom at size %d: boom" size;
      Printf.sprintf "raises at size %d raised Failure(\"kaput\")" size;
    ]
    p.Report.p_failures;
  let probes_json = probes_json report in
  List.iter
    (fun name ->
      Alcotest.(check bool) ("probes." ^ name ^ " is false") true
        (List.assoc_opt name probes_json = Some (Json.Bool false)))
    [ "boom"; "raises" ]

let suites =
  [
    ( "check:gen",
      [
        Alcotest.test_case "build deterministic" `Quick test_build_deterministic;
        Alcotest.test_case "build well-formed" `Quick test_build_well_formed;
        QCheck_alcotest.to_alcotest qcheck_spec_sizes;
        Alcotest.test_case "colored tree" `Quick test_colored_tree_deterministic_and_solvable;
        Alcotest.test_case "pseudo tree" `Quick test_pseudo_tree_builds;
      ] );
    ( "check:mutate",
      [
        Alcotest.test_case "outcome classification" `Quick test_mutate_classification;
        Alcotest.test_case "reference failure" `Quick test_reference_failure_shape;
      ] );
    ( "check:oracle",
      [
        Alcotest.test_case "quick run conformant" `Quick test_oracle_quick_conformant;
        Alcotest.test_case "deterministic" `Quick test_oracle_deterministic;
        Alcotest.test_case "json shape" `Quick test_report_json_shape;
        Alcotest.test_case "only ir" `Quick test_only_ir;
        Alcotest.test_case "bad selection rejected" `Quick test_bad_selection_rejected;
        Alcotest.test_case "failing probes reported" `Quick test_failing_probes_reported;
      ] );
  ]
