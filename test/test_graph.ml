(* Tests for the graph substrate: graphs, builders, BFS, tree labelings. *)

module Graph = Vc_graph.Graph
module Builder = Vc_graph.Builder
module Bfs = Vc_graph.Bfs
module TL = Vc_graph.Tree_labels
module Splitmix = Vc_rng.Splitmix
module Gen = Vc_check.Gen

let status_t = Alcotest.testable TL.pp_status TL.equal_status

(* --- Graph construction and basic accessors ------------------------- *)

let test_path_structure () =
  let g = Builder.path 5 in
  Alcotest.(check int) "n" 5 (Graph.n g);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  Alcotest.(check int) "endpoint degree" 1 (Graph.degree g 0);
  Alcotest.(check int) "middle degree" 2 (Graph.degree g 2);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_ports_are_inverse_consistent () =
  let g = Builder.path 5 in
  Graph.iter_nodes g (fun v ->
      for p = 1 to Graph.degree g v do
        let w = Graph.neighbor g v p in
        match Graph.port_to g w v with
        | None -> Alcotest.fail "missing reverse port"
        | Some q -> Alcotest.(check int) "reverse resolves" v (Graph.neighbor g w q)
      done)

let test_invalid_port_raises () =
  let g = Builder.path 3 in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph.neighbor g 0 2);
       false
     with Invalid_argument _ -> true)

let test_rejects_asymmetric () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph.create ~ids:[| 1; 2 |] ~adj:[| [| 1 |]; [||] |]);
       false
     with Invalid_argument _ -> true)

let test_rejects_self_loop () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph.create ~ids:[| 1 |] ~adj:[| [| 0 |] |]);
       false
     with Invalid_argument _ -> true)

let test_rejects_duplicate_ids () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Graph.create ~ids:[| 1; 1 |] ~adj:[| [| 1 |]; [| 0 |] |]);
       false
     with Invalid_argument _ -> true)

let test_ids_and_lookup () =
  let g = Builder.path 4 in
  Graph.iter_nodes g (fun v ->
      Alcotest.(check (option int)) "roundtrip" (Some v) (Graph.node_of_id g (Graph.id g v)))

let test_shuffle_ids_is_permutation () =
  let g = Builder.cycle 10 in
  let g' = Graph.shuffle_ids g ~rng:(Splitmix.create 1L) in
  let ids = List.sort compare (List.map (Graph.id g') (Graph.nodes g')) in
  Alcotest.(check (list int)) "ids are 1..n" (List.init 10 (fun i -> i + 1)) ids

let test_edges_count () =
  let g = Builder.cycle 7 in
  Alcotest.(check int) "cycle has n edges" 7 (List.length (Graph.edges g))

(* The union must be the graph [Graph.create] builds over the parts'
   rows shifted by their offsets: same ports, ids [1..n], max degree
   and [port_to]. *)
let check_union_matches_create graphs =
  let g, offsets = Builder.disjoint_union graphs in
  let rows =
    List.concat
      (List.mapi
         (fun i part ->
           List.init (Graph.n part) (fun v ->
               Array.map (fun w -> offsets.(i) + w) (Graph.neighbors part v)))
         graphs)
  in
  let n = List.length rows in
  let slow = Graph.create ~ids:(Array.init n (fun v -> v + 1)) ~adj:(Array.of_list rows) in
  Alcotest.(check int) "n" n (Graph.n g);
  Alcotest.(check int) "max degree" (Graph.max_degree slow) (Graph.max_degree g);
  Graph.iter_nodes slow (fun v ->
      Alcotest.(check int) "id" (v + 1) (Graph.id g v);
      Alcotest.(check (array int)) "ports" (Graph.neighbors slow v) (Graph.neighbors g v);
      Graph.iter_nodes slow (fun w ->
          Alcotest.(check (option int)) "port_to" (Graph.port_to slow v w) (Graph.port_to g v w)))

let test_disjoint_union () =
  let g, offsets = Builder.disjoint_union [ Builder.path 3; Builder.cycle 4 ] in
  Alcotest.(check int) "n" 7 (Graph.n g);
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g);
  Alcotest.(check int) "offset 0" 0 offsets.(0);
  Alcotest.(check int) "offset 1" 3 offsets.(1);
  let empty, no_offsets = Builder.disjoint_union [] in
  Alcotest.(check int) "empty union" 0 (Graph.n empty);
  Alcotest.(check int) "no offsets" 0 (Array.length no_offsets);
  check_union_matches_create [];
  check_union_matches_create [ Builder.complete_binary_tree ~depth:2 ];
  check_union_matches_create [ Builder.path 3; Builder.cycle 4 ]

(* Random pointer columns (entries -1 or another node): [of_pointers]
   must give the ports the edge-list path gave, i.e. [Graph.of_edges]
   over the distinct [(min, max)] pairs in sorted order. *)
let prop_of_pointers_matches_sorted_edges =
  QCheck.Test.make ~name:"of_pointers = of_edges over sorted distinct pairs" ~count:200
    QCheck.(pair (int_range 2 24) int)
    (fun (n, seed) ->
      let rng = Splitmix.create (Int64.of_int seed) in
      let column () =
        Array.init n (fun v ->
            if Splitmix.bool rng then -1
            else (v + 1 + Splitmix.int rng ~bound:(n - 1)) mod n)
      in
      let columns = [ column (); column (); column () ] in
      let pairs =
        List.concat_map
          (fun col ->
            List.filter_map
              (fun v -> if col.(v) < 0 then None else Some (min v col.(v), max v col.(v)))
              (List.init n Fun.id))
          columns
      in
      let slow = Graph.of_edges ~n (List.sort_uniq compare pairs) in
      let g = Builder.of_pointers ~n columns in
      Graph.max_degree g = Graph.max_degree slow
      && List.for_all
           (fun v -> Graph.id g v = Graph.id slow v && Graph.neighbors g v = Graph.neighbors slow v)
           (Graph.nodes slow))

let test_attach () =
  let g, _ = Builder.disjoint_union [ Builder.path 2; Builder.path 2 ] in
  let g = Builder.attach g ~extra_edges:[ (1, 2) ] in
  Alcotest.(check bool) "connected after attach" true (Graph.is_connected g);
  Alcotest.(check int) "degree grew" 2 (Graph.degree g 1)

let test_port_to_non_neighbor () =
  let g = Builder.path 4 in
  Alcotest.(check (option int)) "self" None (Graph.port_to g 1 1);
  Alcotest.(check (option int)) "non-adjacent" None (Graph.port_to g 0 2);
  Alcotest.(check (option int)) "out of range" None (Graph.port_to g 0 (-1))

let prop_port_to_inverts_neighbor =
  QCheck.Test.make ~name:"port_to inverts neighbor on every generated graph" ~count:100
    (Gen.spec ())
    (fun spec ->
      let g = Gen.build spec in
      Graph.fold_nodes g ~init:true ~f:(fun acc v ->
          acc
          &&
          let ok = ref true in
          for p = 1 to Graph.degree g v do
            if Graph.port_to g v (Graph.neighbor g v p) <> Some p then ok := false
          done;
          !ok))

let prop_iter_fold_neighbors_agree =
  QCheck.Test.make ~name:"iter/fold_neighbors agree with neighbors" ~count:100 (Gen.spec ())
    (fun spec ->
      let g = Gen.build spec in
      Graph.fold_nodes g ~init:true ~f:(fun acc v ->
          let expected = Array.to_list (Graph.neighbors g v) in
          let via_iter = ref [] in
          Graph.iter_neighbors g v (fun w -> via_iter := w :: !via_iter);
          let via_fold = Graph.fold_neighbors g v ~init:[] ~f:(fun l w -> w :: l) in
          acc && List.rev !via_iter = expected && List.rev via_fold = expected))

(* --- Builders -------------------------------------------------------- *)

let test_cycle_orientation () =
  let g = Builder.cycle 6 in
  Graph.iter_nodes g (fun v ->
      Alcotest.(check int) "port 1 is successor" ((v + 1) mod 6) (Graph.neighbor g v 1);
      Alcotest.(check int) "port 2 is predecessor" ((v + 5) mod 6) (Graph.neighbor g v 2))

let test_complete_tree_shape () =
  let depth = 4 in
  let g = Builder.complete_binary_tree ~depth in
  Alcotest.(check int) "n = 2^(d+1)-1" 31 (Graph.n g);
  Alcotest.(check int) "root id is 1" 1 (Graph.id g (Builder.tree_root g));
  Alcotest.(check int) "root degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "internal degree" 3 (Graph.degree g 1);
  let leaves = Builder.leaves_of_complete_tree ~depth in
  Alcotest.(check int) "leaf count" 16 (List.length leaves);
  List.iter (fun v -> Alcotest.(check int) "leaf degree" 1 (Graph.degree g v)) leaves

let test_complete_tree_ports () =
  let depth = 3 in
  let g = Builder.complete_binary_tree ~depth in
  (* Non-root internal: port 1 parent, port 2 left child, port 3 right. *)
  Alcotest.(check int) "port 1 parent" 0 (Graph.neighbor g 1 1);
  Alcotest.(check int) "port 2 left" 3 (Graph.neighbor g 1 2);
  Alcotest.(check int) "port 3 right" 4 (Graph.neighbor g 1 3)

let test_random_tree_all_binary () =
  let g = Builder.random_binary_tree ~n:41 ~rng:(Splitmix.create 2L) in
  Alcotest.(check int) "odd node count" 41 (Graph.n g);
  Alcotest.(check bool) "connected" true (Graph.is_connected g);
  (* Every node has degree 1 (leaf), 2 (root), or 3 (internal). *)
  Graph.iter_nodes g (fun v ->
      let d = Graph.degree g v in
      Alcotest.(check bool) "degree in {1,2,3}" true (d = 1 || d = 2 || d = 3))

(* --- BFS -------------------------------------------------------------- *)

let test_bfs_distances_path () =
  let g = Builder.path 6 in
  let d = Bfs.distances g 0 in
  Alcotest.(check int) "far end" 5 d.(5);
  Alcotest.(check int) "origin" 0 d.(0)

let test_bfs_disconnected () =
  let g, _ = Builder.disjoint_union [ Builder.path 2; Builder.path 2 ] in
  Alcotest.(check (option int)) "unreachable" None (Bfs.dist g 0 3)

let test_ball_radius () =
  let g = Builder.complete_binary_tree ~depth:3 in
  let b = Bfs.ball g 0 ~radius:1 in
  Alcotest.(check int) "root ball radius 1" 3 (List.length b);
  let b2 = Bfs.ball g 0 ~radius:2 in
  Alcotest.(check int) "root ball radius 2" 7 (List.length b2)

let test_diameter () =
  Alcotest.(check int) "path diameter" 5 (Bfs.diameter (Builder.path 6));
  Alcotest.(check int) "cycle diameter" 3 (Bfs.diameter (Builder.cycle 7))

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances satisfy triangle inequality on cycles" ~count:50
    QCheck.(int_range 3 40)
    (fun n ->
      let g = Builder.cycle n in
      let d0 = Bfs.distances g 0 in
      let d1 = Bfs.distances g 1 in
      Graph.fold_nodes g ~init:true ~f:(fun acc v -> acc && d0.(v) <= d1.(v) + 1))

(* --- Tree labelings --------------------------------------------------- *)

let test_complete_tree_labeling_statuses () =
  let depth = 3 in
  let g, lab = TL.of_complete_binary_tree ~depth in
  Alcotest.check status_t "root internal" TL.Internal (TL.status g lab 0);
  Alcotest.check status_t "mid internal" TL.Internal (TL.status g lab 2);
  List.iter
    (fun v -> Alcotest.check status_t "leaf" TL.Leaf (TL.status g lab v))
    (Builder.leaves_of_complete_tree ~depth)

let test_all_bot_labeling_inconsistent () =
  let g = Builder.path 4 in
  let lab = TL.make ~n:4 in
  Graph.iter_nodes g (fun v ->
      Alcotest.check status_t "inconsistent" TL.Inconsistent (TL.status g lab v))

let test_gt_children_and_parent () =
  let depth = 2 in
  let g, lab = TL.of_complete_binary_tree ~depth in
  (match TL.gt_children g lab 0 with
  | Some (l, r) ->
      Alcotest.(check int) "left child" 1 l;
      Alcotest.(check int) "right child" 2 r
  | None -> Alcotest.fail "root should be internal");
  Alcotest.(check (option int)) "child's parent" (Some 0) (TL.gt_parent g lab 1);
  Alcotest.(check (option int)) "root has no gt parent" None (TL.gt_parent g lab 0)

let test_broken_child_pointer_demotes () =
  let depth = 2 in
  let g, lab = TL.of_complete_binary_tree ~depth in
  let lab = TL.copy lab in
  (* Break node 1's left-child reciprocation: make child 3's parent ⊥.
     Node 1 stops being internal, but its own parent (the root) is still
     internal, so node 1 is demoted to a leaf (Definition 3.3). *)
  lab.TL.parent.{3} <- TL.bot;
  Alcotest.check status_t "node 1 demoted to leaf" TL.Leaf (TL.status g lab 1);
  (* Node 3 itself: not internal, parent pointer is ⊥ -> inconsistent. *)
  Alcotest.check status_t "node 3 inconsistent" TL.Inconsistent (TL.status g lab 3);
  (* Node 1's children 3,4: node 4's parent is 1, which is not internal
     any more, so node 4 is inconsistent too. *)
  Alcotest.check status_t "node 4 inconsistent" TL.Inconsistent (TL.status g lab 4)

let test_status_requires_distinct_children () =
  let g = Builder.path 3 in
  (* Node 1 (middle) claims both children via the same port. *)
  let lab = TL.make ~n:3 in
  lab.TL.left.{1} <- 1;
  lab.TL.right.{1} <- 1;
  lab.TL.parent.{0} <- 1;
  Alcotest.check status_t "same-port children rejected" TL.Inconsistent (TL.status g lab 1)

let test_random_tree_labeling_consistent () =
  let g, lab = TL.of_random_binary_tree ~n:31 ~rng:(Splitmix.create 3L) in
  Graph.iter_nodes g (fun v ->
      Alcotest.(check bool) "consistent" true (TL.is_consistent g lab v))

let test_gt_nodes_excludes_inconsistent () =
  let depth = 2 in
  let g, lab = TL.of_complete_binary_tree ~depth in
  let lab = TL.copy lab in
  lab.TL.parent.{3} <- TL.bot;
  let gt = TL.gt_nodes g lab in
  Alcotest.(check bool) "node 3 not in GT" false (List.mem 3 gt)

let prop_random_tree_status_partition =
  QCheck.Test.make ~name:"random trees: every node internal xor leaf, never inconsistent"
    ~count:30
    QCheck.(int_range 3 101)
    (fun n ->
      let g, lab = TL.of_random_binary_tree ~n ~rng:(Splitmix.create (Int64.of_int n)) in
      Graph.fold_nodes g ~init:true ~f:(fun acc v ->
          acc
          &&
          match TL.status g lab v with
          | TL.Internal -> Graph.degree g v >= 2
          | TL.Leaf -> true
          | TL.Inconsistent -> false))

let suites =
  [
    ( "graph:core",
      [
        Alcotest.test_case "path structure" `Quick test_path_structure;
        Alcotest.test_case "ports inverse-consistent" `Quick test_ports_are_inverse_consistent;
        Alcotest.test_case "invalid port raises" `Quick test_invalid_port_raises;
        Alcotest.test_case "rejects asymmetric" `Quick test_rejects_asymmetric;
        Alcotest.test_case "rejects self-loop" `Quick test_rejects_self_loop;
        Alcotest.test_case "rejects duplicate ids" `Quick test_rejects_duplicate_ids;
        Alcotest.test_case "id lookup" `Quick test_ids_and_lookup;
        Alcotest.test_case "shuffle ids" `Quick test_shuffle_ids_is_permutation;
        Alcotest.test_case "edges count" `Quick test_edges_count;
        Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
        QCheck_alcotest.to_alcotest prop_of_pointers_matches_sorted_edges;
        Alcotest.test_case "attach" `Quick test_attach;
        Alcotest.test_case "port_to non-neighbor" `Quick test_port_to_non_neighbor;
        QCheck_alcotest.to_alcotest prop_port_to_inverts_neighbor;
        QCheck_alcotest.to_alcotest prop_iter_fold_neighbors_agree;
      ] );
    ( "graph:builders",
      [
        Alcotest.test_case "cycle orientation" `Quick test_cycle_orientation;
        Alcotest.test_case "complete tree shape" `Quick test_complete_tree_shape;
        Alcotest.test_case "complete tree ports" `Quick test_complete_tree_ports;
        Alcotest.test_case "random tree binary" `Quick test_random_tree_all_binary;
      ] );
    ( "graph:bfs",
      [
        Alcotest.test_case "distances path" `Quick test_bfs_distances_path;
        Alcotest.test_case "disconnected" `Quick test_bfs_disconnected;
        Alcotest.test_case "ball radius" `Quick test_ball_radius;
        Alcotest.test_case "diameter" `Quick test_diameter;
        QCheck_alcotest.to_alcotest prop_bfs_triangle_inequality;
      ] );
    ( "graph:tree-labels",
      [
        Alcotest.test_case "complete tree statuses" `Quick test_complete_tree_labeling_statuses;
        Alcotest.test_case "all-bot inconsistent" `Quick test_all_bot_labeling_inconsistent;
        Alcotest.test_case "gt children/parent" `Quick test_gt_children_and_parent;
        Alcotest.test_case "broken pointer demotes" `Quick test_broken_child_pointer_demotes;
        Alcotest.test_case "distinct children required" `Quick test_status_requires_distinct_children;
        Alcotest.test_case "random tree consistent" `Quick test_random_tree_labeling_consistent;
        Alcotest.test_case "gt excludes inconsistent" `Quick test_gt_nodes_excludes_inconsistent;
        QCheck_alcotest.to_alcotest prop_random_tree_status_partition;
      ] );
  ]
