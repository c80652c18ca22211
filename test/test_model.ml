(* Tests for the probe executor, worlds, ball gathering and CONGEST. *)

module Graph = Vc_graph.Graph
module Builder = Vc_graph.Builder
module Probe = Vc_model.Probe
module World = Vc_model.World
module Ball = Vc_model.Ball
module Congest = Vc_model.Congest
module Randomness = Vc_rng.Randomness

let unit_world g = World.of_graph g ~input:(fun _ -> ())

let test_origin_visible () =
  let w = unit_world (Builder.path 4) in
  let r =
    Probe.run ~world:w ~origin:2 (fun ctx ->
        Alcotest.(check int) "origin" 2 (Probe.origin ctx);
        Alcotest.(check int) "n" 4 (Probe.n ctx);
        Alcotest.(check int) "initial volume" 1 (Probe.volume ctx);
        Probe.id ctx 2)
  in
  Alcotest.(check (option int)) "id of origin" (Some 3) r.Probe.output

let test_query_extends_visited () =
  let w = unit_world (Builder.path 4) in
  let r =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        let u = Probe.query ctx ~at:0 ~port:1 in
        Alcotest.(check int) "neighbor" 1 u;
        Alcotest.(check bool) "now visited" true (Probe.visited ctx u);
        Probe.query ctx ~at:u ~port:2)
  in
  Alcotest.(check (option int)) "second hop" (Some 2) r.Probe.output;
  Alcotest.(check int) "volume 3" 3 r.Probe.volume;
  Alcotest.(check int) "distance 2" 2 r.Probe.distance;
  Alcotest.(check int) "queries 2" 2 r.Probe.queries

let test_query_from_unvisited_rejected () =
  let w = unit_world (Builder.path 4) in
  let r =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        try
          ignore (Probe.query ctx ~at:3 ~port:1);
          false
        with Probe.Illegal _ -> true)
  in
  Alcotest.(check (option bool)) "illegal" (Some true) r.Probe.output

let test_invalid_port_rejected () =
  let w = unit_world (Builder.path 4) in
  let r =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        try
          ignore (Probe.query ctx ~at:0 ~port:2);
          false
        with Probe.Illegal _ -> true)
  in
  Alcotest.(check (option bool)) "illegal" (Some true) r.Probe.output

let test_requery_free_volume () =
  let w = unit_world (Builder.path 4) in
  let r =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        ignore (Probe.query ctx ~at:0 ~port:1);
        ignore (Probe.query ctx ~at:0 ~port:1);
        ignore (Probe.query ctx ~at:0 ~port:1))
  in
  Alcotest.(check int) "volume 2" 2 r.Probe.volume;
  Alcotest.(check int) "queries 3" 3 r.Probe.queries

let test_volume_budget_aborts () =
  let w = unit_world (Builder.path 10) in
  let r =
    Probe.run ~world:w ~budget:(Probe.volume_budget 3) ~origin:0 (fun ctx ->
        let rec go v = go (Probe.query ctx ~at:v ~port:(Graph.degree (Builder.path 10) v)) in
        go 0)
  in
  Alcotest.(check bool) "aborted" true r.Probe.aborted;
  Alcotest.(check bool) "no output" true (Option.is_none r.Probe.output);
  Alcotest.(check int) "volume capped" 3 r.Probe.volume

let test_distance_budget_aborts () =
  let w = unit_world (Builder.path 10) in
  let r =
    Probe.run ~world:w ~budget:(Probe.distance_budget 2) ~origin:0 (fun ctx ->
        let rec go v = go (Probe.query ctx ~at:v ~port:(if v = 0 then 1 else 2)) in
        go 0)
  in
  Alcotest.(check bool) "aborted" true r.Probe.aborted;
  Alcotest.(check int) "distance capped" 2 r.Probe.distance

let test_deterministic_rand_rejected () =
  let w = unit_world (Builder.path 4) in
  let r =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        try
          ignore (Probe.rand_bit ctx 0);
          false
        with Probe.Illegal _ -> true)
  in
  Alcotest.(check (option bool)) "illegal" (Some true) r.Probe.output

let test_rand_bits_consistent_across_runs () =
  let g = Builder.path 4 in
  let w = unit_world g in
  let rand = Randomness.create ~seed:9L ~n:4 () in
  let read origin =
    (Probe.run ~world:w ~randomness:rand ~origin (fun ctx ->
         ignore (Probe.query ctx ~at:origin ~port:1);
         let v = Graph.neighbor g origin 1 in
         List.init 8 (fun i -> Probe.rand_bit_at ctx v i)))
      .Probe.output
  in
  (* Nodes 0 and 2 both read node 1's bits (ports: node 0 port 1 -> 1;
     node 2 port 1 -> 1? node 2's port 1 is node 1 in a path built from
     edges (0,1),(1,2),(2,3)). *)
  Alcotest.(check (option (list bool))) "same bits seen by different executions" (read 0) (read 2)

let test_secret_randomness_enforced () =
  let w = unit_world (Builder.path 4) in
  let rand = Randomness.create ~regime:Randomness.Secret ~seed:9L ~n:4 () in
  let r =
    Probe.run ~world:w ~randomness:rand ~origin:0 (fun ctx ->
        ignore (Probe.rand_bit ctx 0);
        let u = Probe.query ctx ~at:0 ~port:1 in
        try
          ignore (Probe.rand_bit ctx u);
          false
        with Probe.Illegal _ -> true)
  in
  Alcotest.(check (option bool)) "own ok, other's forbidden" (Some true) r.Probe.output

let test_rand_accounting () =
  let w = unit_world (Builder.path 4) in
  let rand = Randomness.create ~seed:9L ~n:4 () in
  let r =
    Probe.run ~world:w ~randomness:rand ~origin:0 (fun ctx ->
        ignore (Probe.rand_bit ctx 0);
        ignore (Probe.rand_bit ctx 0);
        ignore (Probe.rand_bit_at ctx 0 5))
  in
  Alcotest.(check int) "3 bits read" 3 r.Probe.rand_bits

let test_ball_gather () =
  let g = Builder.complete_binary_tree ~depth:3 in
  let w = unit_world g in
  let r =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        let ball = Ball.gather ctx ~radius:2 in
        List.length ball)
  in
  Alcotest.(check (option int)) "ball size" (Some 7) r.Probe.output;
  (* gathering radius 2 queries all ports of depth<2 nodes: visits depth 3? no *)
  Alcotest.(check int) "distance exactly 2" 2 r.Probe.distance;
  Alcotest.(check int) "volume equals ball size" 7 r.Probe.volume

let test_ball_depths_match_bfs () =
  let g = Builder.cycle 9 in
  let w = unit_world g in
  let r =
    Probe.run ~world:w ~origin:4 (fun ctx -> Ball.gather ctx ~radius:3)
  in
  let expected = Vc_graph.Bfs.distances_upto g 4 ~radius:3 in
  Alcotest.(check (option (list (pair int int)))) "bfs agreement" (Some expected) r.Probe.output

let test_lemma_2_5_volume_of_distance_sim () =
  (* Gathering radius T costs volume <= Delta^T + 1 (Lemma 2.5). *)
  let g = Builder.complete_binary_tree ~depth:5 in
  let w = unit_world g in
  List.iter
    (fun t ->
      let r = Probe.run ~world:w ~origin:0 (fun ctx -> ignore (Ball.gather ctx ~radius:t)) in
      let _, upper = Vc_lcl.Lcl.volume_bounds_from_distance ~delta:(Graph.max_degree g) ~distance:t in
      Alcotest.(check bool) "vol <= Delta^T + 1" true (r.Probe.volume <= upper);
      Alcotest.(check bool) "dist <= vol" true (r.Probe.distance <= r.Probe.volume))
    [ 0; 1; 2; 3 ]

(* --- Worlds: lazy sessions vs eager sessions -------------------------- *)

let test_lazy_dist_matches_bfs () =
  let g = Builder.complete_binary_tree ~depth:4 in
  let w = unit_world g in
  Graph.iter_nodes g (fun origin ->
      let s = w.World.start origin in
      let expected = Vc_graph.Bfs.distances g origin in
      (* Demand distances in node order, not BFS order, so the session
         repeatedly has to expand its frontier mid-stream. *)
      Graph.iter_nodes g (fun v ->
          Alcotest.(check int) "dist matches full BFS" expected.(v) (s.World.dist v)))

let test_lazy_dist_unreachable_max_int () =
  let g, _ = Builder.disjoint_union [ Builder.path 3; Builder.cycle 4 ] in
  let lazy_w = unit_world g in
  let eager_w = World.of_graph_eager g ~input:(fun _ -> ()) in
  let sl = lazy_w.World.start 0 in
  let se = eager_w.World.start 0 in
  Graph.iter_nodes g (fun v ->
      Alcotest.(check int) "lazy = eager" (se.World.dist v) (sl.World.dist v));
  Alcotest.(check bool) "unreachable is max_int" true (sl.World.dist 5 = max_int)

let test_interleaved_sessions_independent () =
  (* A younger session claims the pooled scratch; the older session must
     transparently fall back to private scratch and keep answering. *)
  let g = Builder.cycle 12 in
  let w = unit_world g in
  let s0 = w.World.start 0 in
  Alcotest.(check int) "s0 before interleave" 1 (s0.World.dist 1);
  let s6 = w.World.start 6 in
  Alcotest.(check int) "s6 own origin" 0 (s6.World.dist 6);
  Alcotest.(check int) "s0 after interleave" 6 (s0.World.dist 6);
  Alcotest.(check int) "s0 far node" 4 (s0.World.dist 8);
  Alcotest.(check int) "s6 still answers" 6 (s6.World.dist 0)

let test_lazy_eager_probe_results_identical () =
  let g = Builder.complete_binary_tree ~depth:4 in
  let lazy_w = unit_world g in
  let eager_w = World.of_graph_eager g ~input:(fun _ -> ()) in
  let algo ctx = List.length (Ball.gather ctx ~radius:2) in
  Graph.iter_nodes g (fun origin ->
      let a = Probe.run ~world:lazy_w ~origin algo in
      let b = Probe.run ~world:eager_w ~origin algo in
      Alcotest.(check bool) "full probe results identical" true (a = b))

(* --- the executor against a naive mirror -------------------------------- *)

(* A seeded explorer drives every context operation and checks each
   answer against a model of the executor kept in plain [Hashtbl]s here:
   the visited set in visit order, the query memo, the rand-bit cursors,
   the counters and the exact query at which a budget must abort. *)

type mirror = {
  seen : (Graph.node, unit) Hashtbl.t;
  order : Graph.node array; (* visit order; the first [count] entries *)
  mutable count : int;
  memo : (Graph.node * int, Graph.node) Hashtbl.t;
  cursors : (Graph.node, int) Hashtbl.t;
  mutable m_queries : int;
  mutable m_bits : int;
  mutable m_dist : int;
  mutable abort_expected : bool;
}

(* Runs [ops] random operations from [origin] and returns the volume the
   run reached; fails (raises) on the first disagreement. *)
let explore_against_mirror g ~budget ~randomized ~ops ~seed ~origin =
  let fail fmt = Printf.ksprintf failwith fmt in
  let n = Graph.n g in
  let dist = Vc_graph.Bfs.distances g origin in
  let world = World.of_graph g ~input:(fun v -> v) in
  let randomness =
    if randomized then Some (Randomness.create ~seed:(Int64.of_int seed) ~n ()) else None
  in
  let rng = Random.State.make [| seed |] in
  let m =
    {
      seen = Hashtbl.create 16;
      order = Array.make n 0;
      count = 0;
      memo = Hashtbl.create 16;
      cursors = Hashtbl.create 16;
      m_queries = 0;
      m_bits = 0;
      m_dist = 0;
      abort_expected = false;
    }
  in
  let visit v =
    if not (Hashtbl.mem m.seen v) then begin
      Hashtbl.add m.seen v ();
      m.order.(m.count) <- v;
      m.count <- m.count + 1;
      m.m_dist <- max m.m_dist dist.(v)
    end
  in
  visit origin;
  let visited_list () = Array.to_list (Array.sub m.order 0 m.count) in
  let expect_illegal what msg f =
    match f () with
    | _ -> fail "%s: expected Illegal %S" what msg
    | exception Probe.Illegal got -> if got <> msg then fail "%s: Illegal %S, expected %S" what got msg
  in
  let pick_visited () =
    if Random.State.bool rng then m.order.(m.count - 1) else m.order.(Random.State.int rng m.count)
  in
  let check_counts ctx =
    if Probe.volume ctx <> m.count then fail "volume %d, mirror %d" (Probe.volume ctx) m.count;
    if Probe.queries ctx <> m.m_queries then
      fail "queries %d, mirror %d" (Probe.queries ctx) m.m_queries;
    if Probe.visited_nodes ctx <> visited_list () then fail "visited_nodes differ from the mirror"
  in
  let algo ctx =
    for _ = 1 to ops do
      match Random.State.int rng 16 with
      | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 ->
          (* a legal query, biased towards the newest node so the ball grows *)
          let at = pick_visited () in
          if Graph.degree g at > 0 then begin
            let port = 1 + Random.State.int rng (Graph.degree g at) in
            let u = Graph.neighbor g at port in
            m.m_queries <- m.m_queries + 1;
            if not (Hashtbl.mem m.seen u) then begin
              (match budget.Probe.max_volume with
              | Some cap when m.count >= cap -> m.abort_expected <- true
              | Some _ | None -> ());
              match budget.Probe.max_distance with
              | Some cap when dist.(u) > cap -> m.abort_expected <- true
              | Some _ | None -> ()
            end;
            let got = Probe.query ctx ~at ~port in
            if m.abort_expected then fail "query(%d, %d) should have exhausted the budget" at port;
            if got <> u then fail "query(%d, %d) = %d, expected %d" at port got u;
            Hashtbl.replace m.memo (at, port) u;
            visit u
          end
      | 8 ->
          let v = Random.State.int rng n in
          if not (Hashtbl.mem m.seen v) then
            expect_illegal "query from unvisited"
              (Printf.sprintf "query from unvisited node %d" v)
              (fun () -> Probe.query ctx ~at:v ~port:1)
      | 9 ->
          let at = pick_visited () in
          let d = Graph.degree g at in
          expect_illegal "invalid port"
            (Printf.sprintf "query(%d, %d): invalid port (degree %d)" at (d + 1) d)
            (fun () -> Probe.query ctx ~at ~port:(d + 1))
      | 10 ->
          (* visited or not: an unvisited [at] has resolved nothing *)
          let at = Random.State.int rng n in
          let port = Random.State.int rng (Graph.max_degree g + 2) in
          let want = Hashtbl.find_opt m.memo (at, port) in
          if Probe.resolved ctx ~at ~port <> want then fail "resolved(%d, %d) differs" at port
      | 11 ->
          let v = Random.State.int rng n in
          if Probe.visited ctx v <> Hashtbl.mem m.seen v then fail "visited %d differs" v
      | 12 ->
          let v = Random.State.int rng n in
          if Hashtbl.mem m.seen v then begin
            let w = Probe.view ctx v in
            if w.Vc_model.View.node <> v || w.Vc_model.View.id <> Graph.id g v
               || w.Vc_model.View.degree <> Graph.degree g v || w.Vc_model.View.input <> v
            then fail "view of %d differs" v
          end
          else
            expect_illegal "view" (Printf.sprintf "view of unvisited node %d" v) (fun () ->
                Probe.view ctx v)
      | 13 | 14 -> (
          let v = pick_visited () in
          let sequential = Random.State.bool rng in
          let index =
            if sequential then Option.value ~default:0 (Hashtbl.find_opt m.cursors v)
            else Random.State.int rng 64
          in
          let read () =
            if sequential then Probe.rand_bit ctx v else Probe.rand_bit_at ctx v index
          in
          match randomness with
          | None ->
              expect_illegal "deterministic rand" "deterministic execution reads random bits" read
          | Some r ->
              if read () <> Vc_rng.Stream.bit (Randomness.stream r v) index then
                fail "rand bit %d of node %d differs" index v;
              if sequential then Hashtbl.replace m.cursors v (index + 1);
              m.m_bits <- m.m_bits + 1)
      | _ -> check_counts ctx
    done;
    check_counts ctx;
    Probe.visited_nodes ctx
  in
  let r = Probe.run ~world ?randomness ~budget ~origin algo in
  if r.Probe.aborted <> m.abort_expected then
    fail "aborted %b, mirror %b" r.Probe.aborted m.abort_expected;
  let want_output = if m.abort_expected then None else Some (visited_list ()) in
  if r.Probe.output <> want_output then fail "output differs from the mirror's visit order";
  if r.Probe.volume <> m.count then fail "result volume %d, mirror %d" r.Probe.volume m.count;
  if r.Probe.queries <> m.m_queries then fail "result queries differ";
  if r.Probe.rand_bits <> m.m_bits then fail "result rand_bits %d, mirror %d" r.Probe.rand_bits m.m_bits;
  if r.Probe.distance <> m.m_dist then fail "result distance %d, mirror %d" r.Probe.distance m.m_dist;
  m.count

let qcheck_probe_mirror =
  QCheck.Test.make ~count:150 ~name:"probe context agrees with a naive mirror"
    QCheck.(quad (Vc_check.Gen.spec ~max_size:160 ()) small_nat (int_range 0 2) bool)
    (fun (spec, seed, budget_kind, randomized) ->
      let g = Vc_check.Gen.build spec in
      let budget =
        match budget_kind with
        | 0 -> Probe.unlimited
        | 1 -> Probe.volume_budget (1 + (seed mod 48))
        | _ -> Probe.distance_budget (seed mod 6)
      in
      ignore
        (explore_against_mirror g ~budget ~randomized ~ops:600 ~seed
           ~origin:(seed mod Graph.n g)
          : int);
      true)

(* Runs long enough to grow the context's tables well past their initial
   size and past 4096 visited nodes, with and without a budget; the
   budgeted ones must abort exactly where the mirror says. *)
let test_probe_mirror_large () =
  let cubic = Vc_check.Gen.build { Vc_check.Gen.shape = Cubic; size = 12000; g_seed = 3L } in
  let path = Builder.path 10000 in
  List.iter
    (fun (name, g, budget, randomized, min_volume) ->
      let volume = explore_against_mirror g ~budget ~randomized ~ops:80000 ~seed:11 ~origin:0 in
      if volume <= min_volume then
        Alcotest.failf "%s: reached volume %d, wanted more than %d" name volume min_volume)
    [
      ("unlimited cubic", cubic, Probe.unlimited, true, 4096);
      ("volume budget cubic", cubic, Probe.volume_budget 5000, false, 4096);
      ("distance budget path", path, Probe.distance_budget 4500, true, 4096);
      ("small volume budget", cubic, Probe.volume_budget 40, true, 32);
    ]

(* A run that outgrows its start tables hands them to the next run on
   its domain; a context kept past its run must neither read nor write
   them. *)
let test_stale_context_isolated () =
  let w = unit_world (Builder.cycle 200) in
  let kept = ref None in
  let walk ctx =
    kept := Some ctx;
    let prev = ref (-1) and at = ref (Probe.origin ctx) in
    for _ = 1 to 100 do
      let a = Probe.query ctx ~at:!at ~port:1 in
      let next = if a <> !prev then a else Probe.query ctx ~at:!at ~port:2 in
      prev := !at;
      at := next
    done;
    !at
  in
  let first = Probe.run ~world:w ~origin:0 walk in
  let stale = Option.get !kept in
  let second =
    Probe.run ~world:w ~origin:0 (fun ctx ->
        let out = walk ctx in
        let rejected =
          try
            ignore (Probe.query stale ~at:0 ~port:1);
            false
          with Probe.Illegal _ -> true
        in
        (out, rejected))
  in
  Alcotest.(check int) "first run grew" 101 first.Probe.volume;
  Alcotest.(check (option (pair int bool)))
    "stale query rejected" (Some (Option.get first.Probe.output, true)) second.Probe.output;
  Alcotest.(check int) "second run undisturbed" first.Probe.volume second.Probe.volume

(* --- CONGEST ---------------------------------------------------------- *)

(* Flood the maximum identifier: a classic O(diameter) CONGEST task with
   O(log n)-bit messages. *)
let flood_max_algorithm ~rounds_needed =
  let open Congest in
  {
    init =
      (fun ~n:_ ~id ~degree ~input:() ->
        let out = List.init degree (fun p -> (p + 1, id)) in
        ((id, degree, 0), out));
    round =
      (fun (best, degree, age) ~inbox ->
        let best' = List.fold_left (fun acc (_, m) -> max acc m) best inbox in
        let out = if best' > best then List.init degree (fun p -> (p + 1, best')) else [] in
        let age = age + 1 in
        let decision = if age >= rounds_needed then Some best' else None in
        ((best', degree, age), out, decision));
    message_bits = (fun _ -> 32);
  }

let test_congest_flood_max () =
  let g = Builder.path 8 in
  let res =
    Congest.run ~graph:g ~input:(fun _ -> ()) ~max_rounds:50 (flood_max_algorithm ~rounds_needed:8)
  in
  Array.iter
    (fun o -> Alcotest.(check (option int)) "max id everywhere" (Some 8) o)
    res.Congest.outputs;
  Alcotest.(check bool) "rounds bounded" true (res.Congest.rounds <= 20)

let test_congest_bandwidth_enforced () =
  let g = Builder.path 3 in
  let algo =
    {
      Congest.init = (fun ~n:_ ~id:_ ~degree ~input:() -> ((), List.init degree (fun p -> (p + 1, ()))));
      round = (fun () ~inbox:_ -> ((), [], Some ()));
      message_bits = (fun () -> 100);
    }
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Congest.run ~graph:g ~input:(fun _ -> ()) ~bandwidth:32 ~max_rounds:5 algo);
       false
     with Congest.Bandwidth_exceeded _ -> true)

let suites =
  [
    ( "model:probe",
      [
        Alcotest.test_case "origin visible" `Quick test_origin_visible;
        Alcotest.test_case "query extends visited" `Quick test_query_extends_visited;
        Alcotest.test_case "query from unvisited rejected" `Quick test_query_from_unvisited_rejected;
        Alcotest.test_case "invalid port rejected" `Quick test_invalid_port_rejected;
        Alcotest.test_case "requery free volume" `Quick test_requery_free_volume;
        Alcotest.test_case "volume budget aborts" `Quick test_volume_budget_aborts;
        Alcotest.test_case "distance budget aborts" `Quick test_distance_budget_aborts;
        Alcotest.test_case "deterministic rand rejected" `Quick test_deterministic_rand_rejected;
        Alcotest.test_case "rand bits consistent" `Quick test_rand_bits_consistent_across_runs;
        Alcotest.test_case "secret randomness enforced" `Quick test_secret_randomness_enforced;
        Alcotest.test_case "rand accounting" `Quick test_rand_accounting;
        QCheck_alcotest.to_alcotest qcheck_probe_mirror;
        Alcotest.test_case "mirror past 4096 visited" `Quick test_probe_mirror_large;
        Alcotest.test_case "stale context isolated" `Quick test_stale_context_isolated;
      ] );
    ( "model:world",
      [
        Alcotest.test_case "lazy dist matches full BFS" `Quick test_lazy_dist_matches_bfs;
        Alcotest.test_case "unreachable nodes agree" `Quick test_lazy_dist_unreachable_max_int;
        Alcotest.test_case "interleaved sessions" `Quick test_interleaved_sessions_independent;
        Alcotest.test_case "lazy/eager probe results" `Quick test_lazy_eager_probe_results_identical;
      ] );
    ( "model:ball",
      [
        Alcotest.test_case "gather" `Quick test_ball_gather;
        Alcotest.test_case "depths match bfs" `Quick test_ball_depths_match_bfs;
        Alcotest.test_case "lemma 2.5 simulation bound" `Quick test_lemma_2_5_volume_of_distance_sim;
      ] );
    ( "model:congest",
      [
        Alcotest.test_case "flood max" `Quick test_congest_flood_max;
        Alcotest.test_case "bandwidth enforced" `Quick test_congest_bandwidth_enforced;
      ] );
  ]
