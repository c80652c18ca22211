let path count =
  if count < 1 then invalid_arg "Builder.path: n must be >= 1";
  let edges = List.init (count - 1) (fun v -> (v, v + 1)) in
  Graph.of_edges ~n:count edges

let cycle count =
  if count < 3 then invalid_arg "Builder.cycle: n must be >= 3";
  (* Build adjacency directly so that port 1 is the successor and port 2
     the predecessor, giving a globally consistent orientation. *)
  let adj = Array.init count (fun v -> [| (v + 1) mod count; (v + count - 1) mod count |]) in
  let ids = Array.init count (fun v -> v + 1) in
  Graph.create ~ids ~adj

let torus ~w ~h =
  if w < 3 || h < 3 then invalid_arg "Builder.torus: w and h must be >= 3";
  (* Build adjacency directly so every node carries the grid normal form
     in its port numbering: port 1 = +x (east), port 2 = -x (west),
     port 3 = +y (north), port 4 = -y (south), all with wraparound. *)
  let count = w * h in
  let adj =
    Array.init count (fun v ->
        let x = v mod w and y = v / w in
        [|
          (y * w) + ((x + 1) mod w);
          (y * w) + ((x + w - 1) mod w);
          (((y + 1) mod h) * w) + x;
          (((y + h - 1) mod h) * w) + x;
        |])
  in
  let ids = Array.init count (fun v -> v + 1) in
  Graph.create ~ids ~adj

let tree_parent ~depth v =
  ignore depth;
  if v = 0 then None else Some ((v - 1) / 2)

let tree_depth_of v =
  let rec loop v d = if v = 0 then d else loop ((v - 1) / 2) (d + 1) in
  loop v 0

let tree_left ~depth v =
  let c = (2 * v) + 1 in
  if tree_depth_of v >= depth then None else Some c

let tree_right ~depth v =
  let c = (2 * v) + 2 in
  if tree_depth_of v >= depth then None else Some c

let complete_binary_tree ~depth =
  if depth < 0 then invalid_arg "Builder.complete_binary_tree: depth must be >= 0";
  let count = (1 lsl (depth + 1)) - 1 in
  let adj =
    Array.init count (fun v ->
        let parent = match tree_parent ~depth v with None -> [] | Some p -> [ p ] in
        let kids =
          match (tree_left ~depth v, tree_right ~depth v) with
          | Some l, Some r -> [ l; r ]
          | None, None -> []
          | Some l, None -> [ l ]
          | None, Some r -> [ r ]
        in
        Array.of_list (parent @ kids))
  in
  let ids = Array.init count (fun v -> v + 1) in
  Graph.create ~ids ~adj

let tree_root _g = 0

let leaves_of_complete_tree ~depth =
  let first = (1 lsl depth) - 1 in
  List.init (1 lsl depth) (fun i -> first + i)

let random_binary_tree ~n:requested ~rng =
  if requested < 1 then invalid_arg "Builder.random_binary_tree: n must be >= 1";
  let internal = (requested - 1) / 2 in
  let count = (2 * internal) + 1 in
  (* Grow by repeatedly picking a random current leaf and giving it two
     children.  Node 0 is the root. *)
  let parent = Array.make count (-1) in
  let children = Array.make count None in
  let leaves = ref [ 0 ] in
  let next = ref 1 in
  for _ = 1 to internal do
    let leaf_list = !leaves in
    let len = List.length leaf_list in
    let pick = Vc_rng.Splitmix.int rng ~bound:len in
    let v = List.nth leaf_list pick in
    let l = !next and r = !next + 1 in
    next := !next + 2;
    parent.(l) <- v;
    parent.(r) <- v;
    children.(v) <- Some (l, r);
    leaves := l :: r :: List.filter (fun u -> u <> v) leaf_list
  done;
  let adj =
    Array.init count (fun v ->
        let up = if parent.(v) >= 0 then [ parent.(v) ] else [] in
        let down = match children.(v) with None -> [] | Some (l, r) -> [ l; r ] in
        Array.of_list (up @ down))
  in
  let ids = Array.init count (fun v -> v + 1) in
  Graph.create ~ids ~adj

(* Concatenate the parts' CSR rows: part [i]'s node [v] becomes
   [offsets.(i) + v], so its offsets shift by the edge count before it
   and its targets by the node count before it.  Each part is an
   already-validated graph and no edge crosses parts, so the union is
   valid by construction and adopted without re-checking. *)
let disjoint_union graphs =
  let parts = Array.of_list graphs in
  let offsets = Array.make (Array.length parts) 0 in
  let total = ref 0 and edges = ref 0 and max_degree = ref 0 in
  Array.iteri
    (fun i g ->
      offsets.(i) <- !total;
      total := !total + Graph.n g;
      edges := !edges + Iarr.length (Graph.csr_targets g);
      max_degree := max !max_degree (Graph.max_degree g))
    parts;
  let off = Iarr.create (!total + 1) and tgt = Iarr.create !edges in
  let edge_base = ref 0 in
  Array.iteri
    (fun i g ->
      let base = offsets.(i) in
      let g_off = Graph.csr_offsets g and g_tgt = Graph.csr_targets g in
      for v = 0 to Graph.n g - 1 do
        Iarr.set off (base + v) (!edge_base + Iarr.get g_off v)
      done;
      for e = 0 to Iarr.length g_tgt - 1 do
        Iarr.set tgt (!edge_base + e) (base + Iarr.get g_tgt e)
      done;
      edge_base := !edge_base + Iarr.length g_tgt)
    parts;
  Iarr.set off !total !edge_base;
  let ids = Iarr.init !total (fun v -> v + 1) in
  (Graph.unsafe_of_csr ~ids ~off ~tgt ~max_degree:!max_degree, offsets)

(* Rows are emitted directly: count each node's pointer endpoints, drop
   them into per-node slots, then sort each (short, bounded-degree) row
   by insertion and keep its distinct entries, compacting in place. *)
let of_pointers ~n columns =
  let start = Array.make (n + 1) 0 in
  let each_pointer f =
    List.iter
      (fun col ->
        for v = 0 to n - 1 do
          let u = col.(v) in
          if u >= 0 then f v u
        done)
      columns
  in
  each_pointer (fun v u ->
      if u >= n then invalid_arg "Builder.of_pointers: pointer out of range";
      start.(v + 1) <- start.(v + 1) + 1;
      start.(u + 1) <- start.(u + 1) + 1);
  for v = 0 to n - 1 do
    start.(v + 1) <- start.(v + 1) + start.(v)
  done;
  let slots = Array.make start.(n) 0 in
  let fill = Array.sub start 0 n in
  each_pointer (fun v u ->
      slots.(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1;
      slots.(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1);
  let off = Iarr.create (n + 1) in
  let m = ref 0 in
  for v = 0 to n - 1 do
    let lo = start.(v) and hi = start.(v + 1) in
    for i = lo + 1 to hi - 1 do
      let x = slots.(i) in
      let j = ref (i - 1) in
      while !j >= lo && slots.(!j) > x do
        slots.(!j + 1) <- slots.(!j);
        decr j
      done;
      slots.(!j + 1) <- x
    done;
    Iarr.set off v !m;
    let last = ref (-1) in
    for i = lo to hi - 1 do
      let x = slots.(i) in
      if x <> !last then begin
        slots.(!m) <- x;
        incr m;
        last := x
      end
    done
  done;
  Iarr.set off n !m;
  let tgt = Iarr.init !m (fun e -> slots.(e)) in
  Graph.of_csr ~ids:(Iarr.init n (fun v -> v + 1)) ~off ~tgt

let attach g ~extra_edges =
  let count = Graph.n g in
  let adj = Array.init count (fun v -> Array.to_list (Graph.neighbors g v)) in
  List.iter
    (fun (u, v) ->
      adj.(u) <- adj.(u) @ [ v ];
      adj.(v) <- adj.(v) @ [ u ])
    extra_edges;
  let adj = Array.map Array.of_list adj in
  let ids = Array.init count (fun v -> Graph.id g v) in
  Graph.create ~ids ~adj
