(* Tests for HH-THC(k, l) (paper Section 6.1): the dispatch problem that
   combines Hierarchical-THC(l) with Hybrid-THC(k). *)

module Graph = Vc_graph.Graph
module Probe = Vc_model.Probe
module Lcl = Vc_lcl.Lcl
module HH = Volcomp.Hh_thc
module H = Volcomp.Hierarchical_thc
module Hy = Volcomp.Hybrid_thc
module Randomness = Vc_rng.Randomness
module Iarr = Vc_graph.Iarr
module TL = Vc_graph.Tree_labels
module LC = Volcomp.Leaf_coloring

let solve_all ?randomness inst (solver : (HH.node_input, HH.output) Lcl.solver) =
  let world = HH.world inst in
  let n = Graph.n inst.HH.graph in
  let out =
    Array.init n (fun v ->
        match (Probe.run ~world ?randomness ~origin:v solver.Lcl.solve).Probe.output with
        | Some o -> o
        | None -> Alcotest.fail "solver aborted")
  in
  out

let check_valid inst out =
  match
    Lcl.check
      (HH.problem ~k:inst.HH.k ~l:inst.HH.l)
      inst.HH.graph ~input:(HH.input inst)
      ~output:(fun v -> out.(v))
  with
  | Ok () -> ()
  | Error vs ->
      Alcotest.failf "invalid (%d violations), first: %a" (List.length vs) Lcl.pp_violation
        (List.hd vs)

let test_mixed_instance_shape () =
  let inst = HH.uniform_instance ~k:2 ~l:3 ~size_hint:300 ~seed:1L in
  let bits0 =
    Array.fold_left (fun acc (i : HH.node_input) -> if i.HH.bit then acc else acc + 1) 0
      inst.HH.labels
  in
  Alcotest.(check bool) "has bit-0 nodes" true (bits0 > 0);
  Alcotest.(check bool) "has bit-1 nodes" true (bits0 < Graph.n inst.HH.graph);
  Alcotest.(check bool) "disconnected union" false (Graph.is_connected inst.HH.graph)

let test_distance_solver_valid () =
  List.iter
    (fun (k, l) ->
      let inst = HH.uniform_instance ~k ~l ~size_hint:300 ~seed:2L in
      let out = solve_all inst (HH.solve_distance ~k ~l) in
      check_valid inst out)
    [ (2, 2); (2, 3); (3, 3) ]

let test_volume_deterministic_valid () =
  let inst = HH.uniform_instance ~k:2 ~l:3 ~size_hint:300 ~seed:3L in
  let out = solve_all inst (HH.solve_volume_deterministic ~k:2 ~l:3) in
  check_valid inst out

let test_volume_waypoint_valid () =
  let inst = HH.uniform_instance ~k:2 ~l:3 ~size_hint:300 ~seed:4L in
  let rand = Randomness.create ~seed:5L ~n:(Graph.n inst.HH.graph) () in
  let out = solve_all ~randomness:rand inst (HH.solve_volume_waypoint ~k:2 ~l:3 ()) in
  check_valid inst out

let test_rejects_k_above_l () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (HH.uniform_instance ~k:3 ~l:2 ~size_hint:100 ~seed:1L);
       false
     with Invalid_argument _ -> true)

let test_hard_mixed_instance () =
  (* combine a hard hierarchical side with a hard hybrid side *)
  let hier, _ = H.hard_instance ~k:3 ~target_n:600 ~seed:6L in
  let hybrid, _ = Hy.hard_instance ~k:2 ~target_n:400 ~seed:7L in
  let inst = HH.mixed_instance ~hier ~hybrid in
  let out = solve_all inst (HH.solve_volume_deterministic ~k:2 ~l:3) in
  check_valid inst out;
  let rand = Randomness.create ~seed:8L ~n:(Graph.n inst.HH.graph) () in
  let out_r = solve_all ~randomness:rand inst (HH.solve_volume_waypoint ~k:2 ~l:3 ()) in
  check_valid inst out_r

(* --- golden instance digests ----------------------------------------------

   The THC builders' port order, identifiers and labels are pinned by
   oracle probes and snapshot keys; these digests pin them directly.
   Each covers the CSR rows ([ids], [off], [tgt]), every node's label
   and the returned start node.  The expected values are fixed: a
   builder change that moves any of them changes the instances every
   Table-1 point is measured on. *)

let digest_instance g ~label ~extra =
  let buf = Buffer.create 4096 in
  let ints tag a =
    Buffer.add_string buf tag;
    Iarr.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ",")) a
  in
  ints "ids:" (Graph.csr_ids g);
  ints "off:" (Graph.csr_offsets g);
  ints "tgt:" (Graph.csr_targets g);
  Buffer.add_string buf "labels:";
  Graph.iter_nodes g (fun v ->
      List.iter (fun x -> Buffer.add_string buf (string_of_int x ^ ",")) (label v);
      Buffer.add_char buf ';');
  Buffer.add_string buf (Printf.sprintf "extra:%d" extra);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let color_bit c = if TL.equal_color c TL.Red then 0 else 1

let h_label inst v =
  let i = H.input inst v in
  [ i.LC.parent; i.LC.left; i.LC.right; color_bit i.LC.color ]

let hy_fields (i : Hy.node_input) =
  [ i.Hy.parent; i.left; i.right; i.left_nbr; i.right_nbr; color_bit i.color; i.level ]

let h_digest ?(extra = -1) inst = digest_instance (H.graph inst) ~label:(h_label inst) ~extra

let hy_digest ?(extra = -1) inst =
  digest_instance inst.Hy.graph ~label:(fun v -> hy_fields (Hy.input inst v)) ~extra

let hh_digest inst =
  digest_instance inst.HH.graph ~extra:(-1) ~label:(fun v ->
      let i = HH.input inst v in
      (if i.HH.bit then 1 else 0) :: hy_fields i.HH.hy)

let test_instance_digests () =
  let cases =
    [
      ( "H.hard_instance k=2",
        (fun () ->
          let inst, hot = H.hard_instance ~k:2 ~target_n:400 ~seed:5L in
          h_digest ~extra:hot inst),
        "b11c2648494d11e2b81018294470769d" );
      ( "H.hard_instance k=3",
        (fun () ->
          let inst, hot = H.hard_instance ~k:3 ~target_n:600 ~seed:6L in
          h_digest ~extra:hot inst),
        "f1ba91fd5603e94c2b1ec08954ed70b6" );
      ( "Hy.hard_instance k=2",
        (fun () ->
          let inst, hot = Hy.hard_instance ~k:2 ~target_n:400 ~seed:7L in
          hy_digest ~extra:hot inst),
        "cc186362135376a1f9ce791275024daf" );
      ( "H.uniform_instance",
        (fun () -> h_digest (H.uniform_instance ~k:3 ~len:3 ~seed:8L)),
        "c2e4edea87da4dc525c451698ad3c967" );
      ( "H.cycle_backbone_instance",
        (fun () -> h_digest (H.cycle_backbone_instance ~k:2 ~len:4 ~seed:9L)),
        "6c7d1da075cab82cb22c68b1ede40274" );
      ( "Hy.uniform_instance",
        (fun () -> hy_digest (Hy.uniform_instance ~k:3 ~len:2 ~bt_depth:2 ~seed:10L)),
        "07d1af1cdc04e1bbf6e6831f53d043d1" );
      ( "HH.uniform_instance",
        (fun () -> hh_digest (HH.uniform_instance ~k:2 ~l:3 ~size_hint:300 ~seed:11L)),
        "1699fa514783b7facbf7832b291073d4" );
      ( "HH.mixed_instance",
        (fun () ->
          let hier, _ = H.hard_instance ~k:3 ~target_n:600 ~seed:12L in
          let hybrid = Hy.uniform_instance ~k:2 ~len:4 ~bt_depth:2 ~seed:13L in
          hh_digest (HH.mixed_instance ~hier ~hybrid)),
        "582818b2304d3a7cd3569034ba9b4349" );
    ]
  in
  List.iter
    (fun (name, digest, expected) -> Alcotest.(check string) name expected (digest ()))
    cases

let suites =
  [
    ( "hhthc",
      [
        Alcotest.test_case "mixed instance shape" `Quick test_mixed_instance_shape;
        Alcotest.test_case "distance solver valid" `Quick test_distance_solver_valid;
        Alcotest.test_case "volume deterministic valid" `Quick test_volume_deterministic_valid;
        Alcotest.test_case "volume way-point valid" `Quick test_volume_waypoint_valid;
        Alcotest.test_case "rejects k > l" `Quick test_rejects_k_above_l;
        Alcotest.test_case "hard mixed instance" `Quick test_hard_mixed_instance;
        Alcotest.test_case "golden instance digests" `Quick test_instance_digests;
      ] );
  ]
