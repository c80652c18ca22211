module TL = Vc_graph.Tree_labels
module Graph = Vc_graph.Graph
module Probe = Vc_model.Probe
module World = Vc_model.World
module Lcl = Vc_lcl.Lcl
module Splitmix = Vc_rng.Splitmix

type node_input = Leaf_coloring.node_input

type output =
  | Chromatic of TL.color
  | Decline
  | Exempt

let equal_output a b =
  match (a, b) with
  | Chromatic x, Chromatic y -> TL.equal_color x y
  | Decline, Decline | Exempt, Exempt -> true
  | (Chromatic _ | Decline | Exempt), _ -> false

let pp_output ppf = function
  | Chromatic c -> TL.pp_color ppf c
  | Decline -> Fmt.string ppf "D"
  | Exempt -> Fmt.string ppf "X"

type instance = {
  base : Leaf_coloring.instance;
  k : int;
}

let input inst v = Leaf_coloring.input inst.base v

let graph inst = inst.base.Leaf_coloring.graph

let world inst = World.of_graph (graph inst) ~input:(input inst)

(* --- structural accessors --------------------------------------------- *)

type 'a access = {
  degree : Graph.node -> int;
  node_input : Graph.node -> node_input;
  follow : Graph.node -> TL.ptr -> Graph.node;
}

let graph_access inst =
  let g = graph inst in
  {
    degree = Graph.degree g;
    node_input = input inst;
    follow = Graph.neighbor g;
  }

let resolve a v p =
  if p = TL.bot || p < 1 || p > a.degree v then None else Some (a.follow v p)

(* A child pointer counts only when reciprocated: the target's parent
   pointer resolves back to the node.  Non-reciprocated pointers leave
   the hierarchical forest G_k without the corresponding edge. *)
let reciprocated_child a v p =
  match resolve a v p with
  | None -> None
  | Some u ->
      (match resolve a u (a.node_input u).Leaf_coloring.parent with
      | Some v' when v' = v -> Some u
      | Some _ | None -> None)

let rc_child a v = reciprocated_child a v (a.node_input v).Leaf_coloring.right

let lc_child a v = reciprocated_child a v (a.node_input v).Leaf_coloring.left

(* Definition 5.1: level 1 when the right-child pointer is ⊥ (or not a
   real edge); otherwise one above the right child's level.  Pointer
   cycles and levels beyond k are reported as k+1 ("too high"). *)
let level a ~k v =
  let rec descend v depth =
    if depth > k then k + 1
    else
      match rc_child a v with
      | None -> depth
      | Some u -> descend u (depth + 1)
  in
  descend v 1

let backbone_child a ~k v =
  match lc_child a v with
  | None -> None
  | Some u -> if level a ~k u = level a ~k v then Some u else None

let backbone_parent a ~k v =
  match resolve a v (a.node_input v).Leaf_coloring.parent with
  | None -> None
  | Some u -> (
      match lc_child a u with
      | Some v' when v' = v -> if level a ~k u = level a ~k v then Some u else None
      | Some _ | None -> None)

(* --- the LCL checker (Definition 5.5) ---------------------------------- *)


let problem ~k : (node_input, output) Lcl.t =
  let valid_at g ~input:inp ~output:out v =
    let a = { degree = Graph.degree g; node_input = inp; follow = Graph.neighbor g } in
    let l = level a ~k v in
    let chi v = (inp v).Leaf_coloring.color in
    let err fmt = Fmt.kstr (fun s -> Error s) fmt in
    if l > k then
      match out v with
      | Exempt -> Ok ()
      | o -> err "level > k must be exempt, got %a" pp_output o
    else
      let bc = backbone_child a ~k v in
      let is_leaf = bc = None in
      let rc_out = Option.map out (rc_child a v) in
      let rc_solved =
        match rc_out with
        | Some (Chromatic _ | Exempt) -> true
        | Some Decline | None -> false
      in
      let leaf_clause () =
        (* condition 2 *)
        if not is_leaf then Ok ()
        else
          match out v with
          | Chromatic c when TL.equal_color c (chi v) -> Ok ()
          | Decline | Exempt -> Ok ()
          | Chromatic c -> err "leaf must echo %a, decline or be exempt; got %a" TL.pp_color (chi v) pp_output (Chromatic c)
      in
      let copies_child () =
        match bc with
        | None -> true
        | Some u -> equal_output (out v) (out u)
      in
      let result =
        if l = 1 then
          (* condition 3 *)
          match out v with
          | Exempt -> err "level-1 nodes may not be exempt"
          | Chromatic _ | Decline ->
              if is_leaf then leaf_clause ()
              else if copies_child () then Ok ()
              else err "level-1 backbone must be unanimous"
        else if l < k then begin
          (* condition 4 (non-leaves), condition 2 (leaves) *)
          if is_leaf then
            match out v with
            | Exempt ->
                (* a leaf that exempts itself must still anchor on a
                   solved subtree (conditions 4(b)/5(a) in spirit) *)
                if rc_solved then Ok () else err "exempt leaf without solved subtree"
            | Chromatic _ | Decline -> leaf_clause ()
          else
            let u = match bc with Some u -> u | None -> assert false in
            match out v with
            | Exempt ->
                if rc_solved then Ok ()
                else err "exempt requires the hung subtree to be solved (got %a)"
                    Fmt.(option pp_output) rc_out
            | Chromatic _ | Decline -> (
                if copies_child () then Ok ()
                else
                  match out u with
                  | Exempt -> (
                      (* condition 4(c) *)
                      match out v with
                      | Chromatic c when TL.equal_color c (chi v) -> Ok ()
                      | Decline -> Ok ()
                      | o -> err "above an exempt node: input color or D, got %a" pp_output o)
                  | Chromatic _ | Decline ->
                      err "must copy backbone child (%a) or sit above an exempt node"
                        pp_output (out u))
        end
        else begin
          (* l = k: condition 5 *)
          match out v with
          | Decline -> err "level-k nodes may not decline"
          | Exempt -> if rc_solved then Ok () else err "exempt requires solved subtree (5a)"
          | Chromatic _ when is_leaf -> leaf_clause ()
          | Chromatic c -> (
              let u = match bc with Some u -> u | None -> assert false in
              match out u with
              | Exempt ->
                  if TL.equal_color c (chi v) then Ok ()
                  else err "above exempt at level k: must echo own input color"
              | (Chromatic _ | Decline) as ou ->
                  if equal_output (Chromatic c) ou then Ok ()
                  else err "level-k backbone must copy child (%a)" pp_output ou)
        end
      in
      (match result, out v with
      | Ok (), Chromatic _ when l = 1 || l = k || not is_leaf ->
          (* conditions 3(a)/5 also restrict the alphabet; chromatic is
             always allowed, nothing more to check *)
          Ok ()
      | r, _ -> r)
  in
  { Lcl.name = Printf.sprintf "Hierarchical-THC(%d)" k; radius = 2 * (k + 2); valid_at }

(* --- instance generators ------------------------------------------------ *)

(* Generation state: one int column per pointer, indexed by node and
   holding the target node, or -1 for ⊥.  [new_node] extends the
   columns (doubling their capacity) and generation writes each pointer
   once. *)
type builder = {
  mutable parent : int array;
  mutable left : int array;
  mutable right : int array;
  mutable next : int;
}

let fresh_builder () = { parent = [||]; left = [||]; right = [||]; next = 0 }

let new_node b =
  let v = b.next in
  if v = Array.length b.parent then begin
    let grow col = Array.append col (Array.make (max 64 v) (-1)) in
    b.parent <- grow b.parent;
    b.left <- grow b.left;
    b.right <- grow b.right
  end;
  b.next <- v + 1;
  v

(* [u]'s left (backbone) or right (hung subtree) child is [w]. *)
let set_left b u w =
  b.left.(u) <- w;
  b.parent.(w) <- u

let set_right b u w =
  b.right.(u) <- w;
  b.parent.(w) <- u

(* Build one level-[l] component: a backbone (path, or cycle when [cyclic])
   of [len l] nodes; every backbone node of level >= 2 hangs a fresh
   level-(l-1) component by its right pointer.  Returns the backbone
   root. *)
let rec gen_component b ~len ~cyclic l =
  let size = max 1 (len l) in
  let backbone = Array.init size (fun _ -> new_node b) in
  for i = 0 to size - 2 do
    set_left b backbone.(i) backbone.(i + 1)
  done;
  if cyclic && size >= 3 then set_left b backbone.(size - 1) backbone.(0);
  if l >= 2 then
    Array.iter (fun v -> set_right b v (gen_component b ~len ~cyclic:false (l - 1))) backbone;
  backbone.(0)

(* The graph's edges are the child pointers; every parent pointer is the
   reverse of one.  Node [v]'s ports list its neighbours in ascending
   node index (see {!Vc_graph.Builder.of_pointers}), and each pointer's
   port comes from a scan of that row. *)
let finish b ~k ~seed =
  let n = b.next in
  let g = Vc_graph.Builder.of_pointers ~n [ b.left; b.right ] in
  let ptr col v = if col.(v) < 0 then None else Some col.(v) in
  let labels = TL.of_structure g ~parent:(ptr b.parent) ~left:(ptr b.left) ~right:(ptr b.right) in
  let rng = Splitmix.create seed in
  let colors = Array.init n (fun _ -> if Splitmix.bool rng then TL.Red else TL.Blue) in
  { base = Leaf_coloring.of_tree g labels ~colors; k }

let uniform_instance ~k ~len ~seed =
  if k < 1 then invalid_arg "Hierarchical_thc.uniform_instance: k must be >= 1";
  if len < 1 then invalid_arg "Hierarchical_thc.uniform_instance: len must be >= 1";
  let b = fresh_builder () in
  ignore (gen_component b ~len:(fun _ -> len) ~cyclic:false k);
  finish b ~k ~seed

let cycle_backbone_instance ~k ~len ~seed =
  if len < 3 then invalid_arg "Hierarchical_thc.cycle_backbone_instance: len must be >= 3";
  let b = fresh_builder () in
  ignore (gen_component b ~len:(fun _ -> len) ~cyclic:true k);
  finish b ~k ~seed

(* The volume-hard workload.  Every backbone of the spine is deep
   (longer than the 2·n^{1/k} scan threshold) and carries a consecutive
   run of nodes whose hung subtrees are "unsolvable": their roots must
   output D, so the run's parents cannot exempt themselves and must
   search the run for an anchor, evaluating one subtree per step.

   Placement of the run matters.  At the top level the run sits in the
   middle and is shorter than the threshold, so anchors exist and the
   output stays valid (level-k declining is forbidden).  At the levels
   below, the run covers the backbone's whole prefix — longer than the
   threshold and including the root — so the hung root itself finds no
   anchor and declines, which is what propagates "unsolvable" upward
   and forces the cascade: Algorithm 2 pays Θ̃(n) volume from a top run
   node, while the way-point variant samples only O(log n) subtrees per
   segment and pays Õ(n^{1/k}). *)
let hard_instance ~k ~target_n ~seed =
  if k < 2 then invalid_arg "Hierarchical_thc.hard_instance: k must be >= 2";
  let r =
    max 8 (int_of_float (Float.round (Float.pow (float_of_int target_n) (1.0 /. float_of_int k))))
  in
  let backbone_len = 3 * r in
  let top_run_len = max 1 (r / 4) in
  let top_run_start = (backbone_len - top_run_len) / 2 in
  (* below the top, the run covers the whole backbone: every child is
     unsolvable, so the root's anchor seek runs past the threshold and
     the component declines *)
  let prefix_run_len = backbone_len in
  let shallow_len = max 1 (r / 8) in
  let b = fresh_builder () in
  let rec gen_hard l =
    if l = 1 then gen_component b ~len:(fun _ -> backbone_len) ~cyclic:false 1
    else begin
      let run_start, run_len =
        if l = k then (top_run_start, top_run_len) else (0, prefix_run_len)
      in
      let backbone = Array.init backbone_len (fun _ -> new_node b) in
      for i = 0 to backbone_len - 2 do
        set_left b backbone.(i) backbone.(i + 1)
      done;
      Array.iteri
        (fun i v ->
          set_right b v
            (if i >= run_start && i < run_start + run_len then gen_hard (l - 1)
             else gen_component b ~len:(fun _ -> shallow_len) ~cyclic:false (l - 1)))
        backbone;
      backbone.(0)
    end
  in
  let top = gen_hard k in
  let inst = finish b ~k ~seed in
  (* the interesting start node: the middle of the top-level run *)
  let hot = top + top_run_start + (top_run_len / 2) in
  (inst, hot)

(* --- solvers (Algorithm 2 and its way-point variant) -------------------- *)

(* Component scan from [v] at its level: walk down through backbone
   children and up through backbone parents, at most [limit] steps each
   way, detecting backbone cycles.  Returns:
   - [`Small anchor]: the component has at most [threshold] nodes and
     [anchor] is its leaf (paths) or minimum-id node (cycles);
   - [`Deep]: it is larger. *)
let scan_component a ~k ~id ~threshold ~limit v =
  let rec down u steps acc =
    if steps > limit then `Cut acc
    else
      match backbone_child a ~k u with
      | None -> `Leaf (u, acc)
      | Some w -> if w = v then `Cycle acc else down w (steps + 1) (w :: acc)
  in
  match down v 0 [ v ] with
  | `Cycle members ->
      if List.length members <= threshold then
        let anchor =
          List.fold_left (fun best u -> if id u < id best then u else best) v members
        in
        `Small anchor
      else `Deep
  | `Cut _ -> `Deep
  | `Leaf (leaf, members) ->
      let rec up u steps acc =
        if steps > limit then `Cut acc
        else
          match backbone_parent a ~k u with
          | None -> `Root acc
          | Some w -> up w (steps + 1) (w :: acc)
      in
      (match up v 0 members with
      | `Cut _ -> `Deep
      | `Root members -> if List.length members <= threshold then `Small leaf else `Deep)

let kth_root n k =
  int_of_float (Float.ceil (Float.pow (float_of_int n) (1.0 /. float_of_int k)))

(* One deep-backbone coloring step, shared with Hybrid-THC: the node
   exempts itself if its own hung subtree is solved; otherwise it seeks
   the nearest anchors — solved nodes or backbone ends — below ([bc])
   and above ([bp]), and takes the segment color they determine; if the
   anchors are out of reach it declines (when allowed). *)
let backbone_solve ~bc ~bp ~chi ~rc_solved ~decline_allowed ~threshold v =
  if rc_solved v then Exempt
  else begin
    let rec seek step u dist =
      if u <> v && rc_solved u then Some (u, dist, `Solved)
      else
        match step u with
        | None -> Some (u, dist, `End)
        | Some u' -> if dist >= threshold + 1 then None else seek step u' (dist + 1)
    in
    let down = seek bc v 0 in
    let up = seek bp v 0 in
    match (down, up) with
    | Some (u, du, ukind), Some (_, dw, _) when du + dw <= threshold -> (
        match ukind with
        | `Solved ->
            (* u will output X; the segment takes the input color of
               the node just above u *)
            let above = match bp u with Some p -> p | None -> u in
            Chromatic (chi above)
        | `End ->
            (* u is the level leaf and will echo its input *)
            Chromatic (chi u))
    | Some _, Some _ | Some _, None | None, Some _ | None, None ->
        if decline_allowed then Decline
        else
          (* unreachable on well-formed instances (Lemma 5.11): echo
             the input color defensively *)
          Chromatic (chi v)
  end

let solve_access ~k ~is_waypoint ~access:a ~n ~id v0 =
  let threshold = 2 * kth_root n k in
  let chi v = (a.node_input v).Leaf_coloring.color in
  let rec solve v l =
    if l > k then Exempt
    else
      match scan_component a ~k ~id ~threshold ~limit:(threshold + 1) v with
      | `Small anchor -> Chromatic (chi anchor)
      | `Deep ->
          if l = 1 then Decline
          else
            let rc_solved u =
              is_waypoint u
              &&
              match rc_child a u with
              | None -> false
              | Some r -> (
                  match solve r (l - 1) with
                  | Chromatic _ | Exempt -> true
                  | Decline -> false)
            in
            backbone_solve
              ~bc:(backbone_child a ~k)
              ~bp:(backbone_parent a ~k)
              ~chi ~rc_solved
              ~decline_allowed:(l < k) ~threshold v
  in
  solve v0 (level a ~k v0)

let probe_access ctx =
  {
    degree = Probe.degree ctx;
    node_input = (fun v -> Probe.input ctx v);
    follow = (fun v p -> Probe.query ctx ~at:v ~port:p);
  }

let solve_gen ~k ~is_waypoint ctx =
  solve_access ~k ~is_waypoint ~access:(probe_access ctx) ~n:(Probe.n ctx)
    ~id:(Probe.id ctx) (Probe.origin ctx)

let solve_deterministic ~k =
  Lcl.solver
    ~name:(Printf.sprintf "RecursiveHTHC(k=%d) (Alg 2)" k)
    ~randomized:false
    (fun ctx -> solve_gen ~k ~is_waypoint:(fun _ -> true) ctx)

(* Way-point election: compare 30 private bits against p·2^30, so every
   execution that inspects a node sees the same verdict. *)
let elect_waypoint ctx ~p v =
  let scaled = int_of_float (p *. 1073741824.0) in
  let rec value i acc = if i = 30 then acc else value (i + 1) ((2 * acc) + if Probe.rand_bit_at ctx v i then 1 else 0) in
  value 0 0 < scaled

let solve_waypoint ~k ?(c = 3.0) () =
  Lcl.solver
    ~name:(Printf.sprintf "waypoint-HTHC(k=%d, c=%.1f) (Prop 5.14)" k c)
    ~randomized:true
    (fun ctx ->
      let n = Probe.n ctx in
      let p =
        Float.min 1.0
          (c *. log (float_of_int (max 2 n)) /. float_of_int (kth_root n k))
      in
      solve_gen ~k ~is_waypoint:(elect_waypoint ctx ~p) ctx)

let solvers ~k = [ solve_deterministic ~k; solve_waypoint ~k () ]
