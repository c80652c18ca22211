module TL = Vc_graph.Tree_labels
module Graph = Vc_graph.Graph
module Probe = Vc_model.Probe
module World = Vc_model.World
module Lcl = Vc_lcl.Lcl
module Splitmix = Vc_rng.Splitmix
module BT = Balanced_tree
module H = Hierarchical_thc

type node_input = {
  parent : TL.ptr;
  left : TL.ptr;
  right : TL.ptr;
  left_nbr : TL.ptr;
  right_nbr : TL.ptr;
  color : TL.color;
  level : int;
}

let pp_node_input ppf i =
  Fmt.pf ppf "P=%d LC=%d RC=%d LN=%d RN=%d chi=%a lvl=%d" i.parent i.left i.right i.left_nbr
    i.right_nbr TL.pp_color i.color i.level

type output =
  | Solved of BT.output
  | Sym of H.output

let equal_output a b =
  match (a, b) with
  | Solved x, Solved y -> BT.equal_output x y
  | Sym x, Sym y -> H.equal_output x y
  | (Solved _ | Sym _), _ -> false

let pp_output ppf = function
  | Solved o -> BT.pp_output ppf o
  | Sym o -> H.pp_output ppf o

type instance = {
  graph : Graph.t;
  labels : node_input array;
  k : int;
}

let input inst v = inst.labels.(v)

let world inst = World.of_graph inst.graph ~input:(input inst)

(* --- structural accessors ---------------------------------------------- *)

type 'a access = {
  degree : Graph.node -> int;
  node_input : Graph.node -> node_input;
  follow : Graph.node -> TL.ptr -> Graph.node;
}

let resolve a v p =
  if p = TL.bot || p < 1 || p > a.degree v then None else Some (a.follow v p)

let lvl ~k a v =
  let l = (a.node_input v).level in
  if l < 1 || l > k + 1 then k + 1 else l

let reciprocated_child a v p =
  match resolve a v p with
  | None -> None
  | Some u -> (
      match resolve a u (a.node_input u).parent with
      | Some v' when v' = v -> Some u
      | Some _ | None -> None)

(* The hung subtree edge of a level >= 2 node: reciprocated right child
   one level down. *)
let rc_child ~k a v =
  match reciprocated_child a v (a.node_input v).right with
  | Some u when lvl ~k a u = lvl ~k a v - 1 -> Some u
  | Some _ | None -> None

let backbone_child ~k a v =
  match reciprocated_child a v (a.node_input v).left with
  | Some u when lvl ~k a u = lvl ~k a v -> Some u
  | Some _ | None -> None

let backbone_parent ~k a v =
  match resolve a v (a.node_input v).parent with
  | None -> None
  | Some u -> (
      match reciprocated_child a u (a.node_input u).left with
      | Some v' when v' = v && lvl ~k a u = lvl ~k a v -> Some u
      | Some _ | None -> None)

(* The BalancedTree view of a level-1 node: pointers leaving level 1 are
   masked to ⊥ (the level-1 subgraph is what Definition 6.1 checks);
   unresolvable pointers are kept so BalancedTree sees the defect. *)
let bt_input ~k a v =
  let mask p =
    match resolve a v p with
    | None -> p
    | Some u -> if lvl ~k a u = 1 then p else TL.bot
  in
  let i = a.node_input v in
  if lvl ~k a v <> 1 then
    { BT.parent = TL.bot; left = TL.bot; right = TL.bot; left_nbr = TL.bot; right_nbr = TL.bot }
  else
    {
      BT.parent = mask i.parent;
      left = mask i.left;
      right = mask i.right;
      left_nbr = mask i.left_nbr;
      right_nbr = mask i.right_nbr;
    }

(* Neighbors of a level-1 node in the pseudo-forest G_T of its
   BalancedTree component (for the unanimous-decline rule). *)
let bt_gt_neighbors ~k a v =
  let i = bt_input ~k a v in
  let child p =
    match reciprocated_child a v p with
    | Some u when lvl ~k a u = 1 -> [ u ]
    | Some _ | None -> []
  in
  let parent =
    match resolve a v i.BT.parent with
    | Some u
      when lvl ~k a u = 1
           && (reciprocated_child a u (a.node_input u).left = Some v
              || reciprocated_child a u (a.node_input u).right = Some v) ->
        [ u ]
    | Some _ | None -> []
  in
  parent @ child i.BT.left @ child i.BT.right

(* --- the LCL checker (Definition 6.1) ----------------------------------- *)

let junk_bt = { BT.verdict = BT.Unbal; port = -1 }

let problem ~k : (node_input, output) Lcl.t =
  let valid_at g ~input:inp ~output:out v =
    let a = { degree = Graph.degree g; node_input = inp; follow = Graph.neighbor g } in
    let l = lvl ~k a v in
    let chi u = (inp u).color in
    let err fmt = Fmt.kstr (fun s -> Error s) fmt in
    let sym u = match out u with Sym s -> Some s | Solved _ -> None in
    if l > k then
      match out v with
      | Sym H.Exempt -> Ok ()
      | o -> err "level > k must be exempt, got %a" pp_output o
    else if l = 1 then begin
      match out v with
      | Sym H.Decline ->
          if
            List.for_all
              (fun u -> match out u with Sym H.Decline -> true | Sym _ | Solved _ -> false)
              (bt_gt_neighbors ~k a v)
          then Ok ()
          else err "declining level-1 node has a non-declining G_T neighbor"
      | Solved _ | Sym _ ->
          (* BalancedTree validity on the masked level-1 subgraph; any
             non-BalancedTree output of a referenced node reads as junk
             and fails the comparison. *)
          let bt_out u = match out u with Solved o -> o | Sym _ -> junk_bt in
          BT.problem.Lcl.valid_at g ~input:(bt_input ~k a) ~output:bt_out v
    end
    else begin
      (* levels 2..k: Definition 5.5 conditions, with exemption at level
         2 requiring a solved BalancedTree below (Definition 6.1). *)
      let rc_out = Option.map out (rc_child ~k a v) in
      let rc_solved =
        if l = 2 then match rc_out with Some (Solved _) -> true | Some (Sym _) | None -> false
        else
          match rc_out with
          | Some (Sym (H.Chromatic _ | H.Exempt)) -> true
          | Some (Sym H.Decline) | Some (Solved _) | None -> false
      in
      let bc = backbone_child ~k a v in
      let is_leaf = bc = None in
      let top = l = k && k >= 3 in
      match out v with
      | Solved _ -> err "levels >= 2 must output an R/B/D/X symbol"
      | Sym s -> (
          match s with
          | H.Exempt -> if rc_solved then Ok () else err "exempt requires a solved subtree"
          | H.Decline ->
              if top then err "level-k nodes may not decline"
              else if is_leaf then Ok ()
              else (
                match Option.bind bc sym with
                | Some H.Decline -> Ok ()
                | Some H.Exempt -> Ok () (* condition 4(c): D above an exempt node *)
                | Some (H.Chromatic _) | None ->
                    err "declining backbone node must sit above D or X")
          | H.Chromatic c ->
              if is_leaf then
                if TL.equal_color c (chi v) then Ok ()
                else err "chromatic leaf must echo its input color"
              else (
                match Option.bind bc sym with
                | Some H.Exempt ->
                    if TL.equal_color c (chi v) then Ok ()
                    else err "above an exempt node: must echo own input color"
                | Some (H.Chromatic c') when TL.equal_color c c' -> Ok ()
                | Some (H.Chromatic _ | H.Decline) | None ->
                    err "chromatic backbone node must copy its child or sit above X"))
    end
  in
  { Lcl.name = Printf.sprintf "Hybrid-THC(%d)" k; radius = 2 * (k + 2); valid_at }

(* --- instance generators -------------------------------------------------- *)

(* Generation state, as in Hierarchical-THC: one int column per pointer
   (the target node, or -1 for ⊥) plus the level column, all indexed by
   node.  [new_node] extends the columns (doubling their capacity) and
   generation writes each entry once. *)
type builder = {
  mutable parent : int array;
  mutable left : int array;
  mutable right : int array;
  mutable ln : int array;
  mutable rn : int array;
  mutable level : int array;
  mutable next : int;
}

let fresh_builder () =
  { parent = [||]; left = [||]; right = [||]; ln = [||]; rn = [||]; level = [||]; next = 0 }

let new_node b l =
  let v = b.next in
  if v = Array.length b.level then begin
    let grow col = Array.append col (Array.make (max 64 v) (-1)) in
    b.parent <- grow b.parent;
    b.left <- grow b.left;
    b.right <- grow b.right;
    b.ln <- grow b.ln;
    b.rn <- grow b.rn;
    b.level <- grow b.level
  end;
  b.next <- v + 1;
  b.level.(v) <- l;
  v

(* A fully compatible BalancedTree of the given depth, all nodes at
   level 1, rooted below [parent]. *)
let gen_bt b ~depth ~parent =
  let size = (1 lsl (depth + 1)) - 1 in
  let base = b.next in
  for _ = 1 to size do
    ignore (new_node b 1)
  done;
  let node i = base + i in
  for i = 0 to size - 1 do
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    if l < size then begin
      b.left.(node i) <- node l;
      b.parent.(node l) <- node i
    end;
    if r < size then begin
      b.right.(node i) <- node r;
      b.parent.(node r) <- node i
    end
  done;
  (* lateral pointers between consecutive nodes of each depth row *)
  for d = 1 to depth do
    let first = (1 lsl d) - 1 in
    for i = 0 to (1 lsl d) - 2 do
      b.rn.(node (first + i)) <- node (first + i + 1);
      b.ln.(node (first + i + 1)) <- node (first + i)
    done
  done;
  b.parent.(node 0) <- parent;
  node 0

let rec gen_backbone b ~len l ~sub =
  let backbone = Array.init (max 1 len) (fun _ -> new_node b l) in
  for i = 0 to Array.length backbone - 2 do
    b.left.(backbone.(i)) <- backbone.(i + 1);
    b.parent.(backbone.(i + 1)) <- backbone.(i)
  done;
  Array.iteri
    (fun i v ->
      let root = sub ~parent:v ~level:(l - 1) ~index:i in
      b.right.(v) <- root;
      if l - 1 > 1 then b.parent.(root) <- v)
    backbone;
  backbone.(0)

and gen_uniform b ~len ~bt_depth l ~parent =
  if l = 1 then gen_bt b ~depth:bt_depth ~parent
  else
    gen_backbone b ~len l ~sub:(fun ~parent ~level ~index:_ ->
        gen_uniform b ~len ~bt_depth level ~parent)

(* The graph's edges are the child, lateral and parent pointers (each
   left-neighbour pointer is the reverse of a right-neighbour one).
   Node [v]'s ports list its neighbours in ascending node index (see
   {!Vc_graph.Builder.of_pointers}), and each pointer's port comes from
   a scan of that row. *)
let finish b ~k ~seed =
  let n = b.next in
  let g = Vc_graph.Builder.of_pointers ~n [ b.left; b.right; b.rn; b.parent ] in
  let rng = Splitmix.create seed in
  let port col v =
    let u = col.(v) in
    if u < 0 then TL.bot else match Graph.port_to g v u with Some p -> p | None -> TL.bot
  in
  let labels =
    Array.init n (fun v ->
        {
          parent = port b.parent v;
          left = port b.left v;
          right = port b.right v;
          left_nbr = port b.ln v;
          right_nbr = port b.rn v;
          color = (if Splitmix.bool rng then TL.Red else TL.Blue);
          level = b.level.(v);
        })
  in
  { graph = g; labels; k }

let uniform_instance ~k ~len ~bt_depth ~seed =
  if k < 2 then invalid_arg "Hybrid_thc.uniform_instance: k must be >= 2";
  let b = fresh_builder () in
  ignore (gen_uniform b ~len ~bt_depth k ~parent:(-1));
  finish b ~k ~seed

let hard_instance ~k ~target_n ~seed =
  if k < 2 then invalid_arg "Hybrid_thc.hard_instance: k must be >= 2";
  let r =
    max 8 (int_of_float (Float.round (Float.pow (float_of_int target_n) (1.0 /. float_of_int k))))
  in
  let backbone_len = 3 * r in
  let run_len = max 1 (r / 4) in
  let run_start = (backbone_len - run_len) / 2 in
  (* The run's BalancedTrees must exceed the scan threshold (≈ 2.5·r
     for this shape) without dominating n: aim for ≈ 3r nodes each, so
     n ≈ (run_len)·3r ≈ 0.75·r² and the threshold 2√n stays below both
     the backbone length (3r) and the tree size. *)
  let big_depth = max 2 (Probe_tree.log2_ceil ((3 * r) + 1) - 1) in
  let small_depth = 1 in
  let b = fresh_builder () in
  let rec gen_hard l ~parent =
    if l = 1 then gen_bt b ~depth:big_depth ~parent
    else
      gen_backbone b ~len:backbone_len l ~sub:(fun ~parent ~level ~index ->
          if index >= run_start && index < run_start + run_len then gen_hard level ~parent
          else if level = 1 then gen_bt b ~depth:small_depth ~parent
          else gen_uniform b ~len:2 ~bt_depth:small_depth level ~parent)
  in
  let top = gen_hard k ~parent:(-1) in
  let inst = finish b ~k ~seed in
  (inst, top + run_start + (run_len / 2))

(* --- solvers ---------------------------------------------------------------- *)

let probe_access ctx =
  {
    degree = Probe.degree ctx;
    node_input = (fun v -> Probe.input ctx v);
    follow = (fun v p -> Probe.query ctx ~at:v ~port:p);
  }

let solve_bt ~k a ~n v =
  BT.solve_core ~degree:a.degree ~input:(bt_input ~k a) ~follow:a.follow ~n v

(* The O(log n)-distance strategy of Theorem 6.3: solve the BalancedTree
   at level 1; every higher node exempts itself, anchored on the fact
   that the component below it is always solved. *)
let solve_distance_access ~k ~access:a ~n v0 =
  let l = lvl ~k a v0 in
  if l > k then Sym H.Exempt
  else if l = 1 then Solved (solve_bt ~k a ~n v0)
  else
    match rc_child ~k a v0 with
    | Some _ -> Sym H.Exempt
    | None ->
        (* no hung subtree: cannot exempt; echo the input color, which
           is valid for a backbone leaf *)
        Sym (H.Chromatic (a.node_input v0).color)

let solve_distance ~k =
  Lcl.solver
    ~name:(Printf.sprintf "all-exempt+BT(k=%d) (Thm 6.3)" k)
    ~randomized:false
    (fun ctx ->
      solve_distance_access ~k ~access:(probe_access ctx) ~n:(Probe.n ctx) (Probe.origin ctx))

(* Size of the level-1 BalancedTree component around [v], counted up to
   [limit] by BFS over the masked structure. *)
let bt_component_size ~k a ~limit v =
  let seen = Hashtbl.create 64 in
  Hashtbl.add seen v ();
  let queue = Queue.create () in
  Queue.add v queue;
  let count = ref 1 in
  while (not (Queue.is_empty queue)) && !count <= limit do
    let u = Queue.pop queue in
    List.iter
      (fun w ->
        if not (Hashtbl.mem seen w) then begin
          Hashtbl.add seen w ();
          incr count;
          Queue.add w queue
        end)
      (bt_gt_neighbors ~k a u)
  done;
  !count

(* Backbone component scan at levels >= 2, as in Hierarchical-THC. *)
let scan_component ~k a ~id ~threshold ~limit v =
  let rec down u steps acc =
    if steps > limit then `Cut acc
    else
      match backbone_child ~k a u with
      | None -> `Leaf (u, acc)
      | Some w -> if w = v then `Cycle acc else down w (steps + 1) (w :: acc)
  in
  match down v 0 [ v ] with
  | `Cycle members ->
      if List.length members <= threshold then
        `Small (List.fold_left (fun best u -> if id u < id best then u else best) v members)
      else `Deep
  | `Cut _ -> `Deep
  | `Leaf (leaf, members) -> (
      let rec up u steps acc =
        if steps > limit then `Cut acc
        else
          match backbone_parent ~k a u with
          | None -> `Root acc
          | Some w -> up w (steps + 1) (w :: acc)
      in
      match up v 0 members with
      | `Cut _ -> `Deep
      | `Root members -> if List.length members <= threshold then `Small leaf else `Deep)

let solve_volume_access ~k ~is_waypoint ~access:a ~n ~id v0 =
  let threshold = 2 * H.kth_root n k in
  let chi v = (a.node_input v).color in
  let bt_small v = bt_component_size ~k a ~limit:(threshold + 1) v <= threshold in
  let rec solve v l =
    if l > k then Sym H.Exempt
    else if l = 1 then
      if bt_small v then Solved (solve_bt ~k a ~n v) else Sym H.Decline
    else
      match scan_component ~k a ~id ~threshold ~limit:(threshold + 1) v with
      | `Small anchor -> Sym (H.Chromatic (chi anchor))
      | `Deep ->
          let rc_solved u =
            is_waypoint u
            &&
            match rc_child ~k a u with
            | None -> false
            | Some r ->
                if l = 2 then bt_small r
                else (
                  match solve r (l - 1) with
                  | Sym (H.Chromatic _ | H.Exempt) -> true
                  | Sym H.Decline | Solved _ -> false)
          in
          Sym
            (H.backbone_solve
               ~bc:(backbone_child ~k a)
               ~bp:(backbone_parent ~k a)
               ~chi ~rc_solved
               ~decline_allowed:(l = 2 || l < k)
               ~threshold v)
  in
  solve v0 (lvl ~k a v0)

let solve_volume_gen ~k ~is_waypoint ctx =
  solve_volume_access ~k ~is_waypoint ~access:(probe_access ctx) ~n:(Probe.n ctx)
    ~id:(Probe.id ctx) (Probe.origin ctx)

let solve_volume_deterministic ~k =
  Lcl.solver
    ~name:(Printf.sprintf "hybrid volume, deterministic (k=%d)" k)
    ~randomized:false
    (fun ctx -> solve_volume_gen ~k ~is_waypoint:(fun _ -> true) ctx)

let solve_volume_waypoint ~k ?(c = 3.0) () =
  Lcl.solver
    ~name:(Printf.sprintf "hybrid volume, way-point (k=%d, c=%.1f)" k c)
    ~randomized:true
    (fun ctx ->
      let n = Probe.n ctx in
      let p =
        Float.min 1.0 (c *. log (float_of_int (max 2 n)) /. float_of_int (H.kth_root n k))
      in
      let is_waypoint v =
        let scaled = int_of_float (p *. 1073741824.0) in
        let rec value i acc =
          if i = 30 then acc
          else value (i + 1) ((2 * acc) + if Probe.rand_bit_at ctx v i then 1 else 0)
        in
        value 0 0 < scaled
      in
      solve_volume_gen ~k ~is_waypoint ctx)

let solvers ~k =
  [ solve_distance ~k; solve_volume_deterministic ~k; solve_volume_waypoint ~k () ]
