type node = int
type port = int

(* Compressed sparse row over {!Iarr} (bigarray) storage: node [v]'s
   neighbors, in port order, are [tgt.{off.{v}} .. tgt.{off.{v+1} - 1}].
   Bigarray rows make a graph snapshottable as raw bytes ([lib/snap]):
   a mapped file region is used as [ids]/[off]/[tgt] directly, shared
   read-only across processes.

   The id index is built lazily: it only serves [node_of_id], and
   snapshot loads must not pay an O(n) hashtable build for an accessor
   most workloads never call. *)
type t = {
  ids : Iarr.t;
  off : Iarr.t;
  tgt : Iarr.t;
  mutable id_index : (int, node) Hashtbl.t option;
  max_degree : int;
}

let n g = Iarr.length g.ids

let degree g v = Iarr.get g.off (v + 1) - Iarr.get g.off v

let max_degree g = g.max_degree

let id g v = Iarr.get g.ids v

let id_index g =
  match g.id_index with
  | Some tbl -> tbl
  | None ->
      let count = n g in
      let tbl = Hashtbl.create count in
      for v = 0 to count - 1 do
        Hashtbl.replace tbl (Iarr.get g.ids v) v
      done;
      g.id_index <- Some tbl;
      tbl

let node_of_id g i = Hashtbl.find_opt (id_index g) i

let neighbor g v p =
  if p < 1 || p > degree g v then
    invalid_arg
      (Printf.sprintf "Graph.neighbor: port %d invalid at node %d (degree %d)" p v (degree g v));
  Iarr.get g.tgt (Iarr.get g.off v + p - 1)

let unsafe_neighbor g v p = Iarr.unsafe_get g.tgt (Iarr.unsafe_get g.off v + p - 1)

let csr_offsets g = g.off
let csr_targets g = g.tgt
let csr_ids g = g.ids

(* Port-order row scan.  Bounded degree makes this effectively O(1); it
   replaces the reverse-lookup hashtable of earlier versions, whose O(m)
   construction and heap footprint defeated zero-rebuild snapshot
   loads. *)
let port_to g v w =
  if v < 0 || w < 0 || v >= n g || w >= n g then None
  else begin
    let lo = Iarr.get g.off v and hi = Iarr.get g.off (v + 1) in
    let found = ref None in
    let e = ref lo in
    while !found = None && !e < hi do
      if Iarr.unsafe_get g.tgt !e = w then found := Some (!e - lo + 1);
      incr e
    done;
    !found
  end

let neighbors g v =
  let base = Iarr.get g.off v in
  Array.init (degree g v) (fun i -> Iarr.unsafe_get g.tgt (base + i))

let iter_neighbors g v f =
  let stop = Iarr.get g.off (v + 1) - 1 in
  for e = Iarr.get g.off v to stop do
    f (Iarr.unsafe_get g.tgt e)
  done

let fold_neighbors g v ~init ~f =
  let acc = ref init in
  iter_neighbors g v (fun w -> acc := f !acc w);
  !acc

(* Trusted constructor for snapshot loads: the checksummed snapshot is
   the validity witness, so no structural checks run here.  [ids], [off]
   and [tgt] are adopted as-is (typically views into a mapped file). *)
let unsafe_of_csr ~ids ~off ~tgt ~max_degree =
  if Iarr.length off <> Iarr.length ids + 1 then
    invalid_arg "Graph.unsafe_of_csr: off must have n+1 entries";
  { ids; off; tgt; id_index = None; max_degree }

(* Identifiers must be distinct.  Dense id ranges (the common [1..n]
   case) are checked with a bitmap; sparse ones by sorting a copy. *)
let check_distinct_ids ids =
  let count = Iarr.length ids in
  if count > 1 then begin
    let lo = ref max_int and hi = ref min_int in
    Iarr.iter
      (fun i ->
        if i < !lo then lo := i;
        if i > !hi then hi := i)
      ids;
    let span = !hi - !lo in
    let dup () = invalid_arg "Graph.create: duplicate identifier" in
    if span >= 0 && span < 4 * count then begin
      let seen = Bytes.make (span + 1) '\000' in
      Iarr.iter
        (fun i ->
          let j = i - !lo in
          if Bytes.unsafe_get seen j <> '\000' then dup ();
          Bytes.unsafe_set seen j '\001')
        ids
    end
    else begin
      let sorted = Iarr.to_array ids in
      Array.sort compare sorted;
      for j = 1 to count - 1 do
        if sorted.(j) = sorted.(j - 1) then dup ()
      done
    end
  end

(* The one validating constructor: {!create} and the CSR-emitting
   builders both end here, so every graph that is not a trusted
   snapshot load passes the same checks with the same messages. *)
let of_csr ~ids ~off ~tgt =
  let count = Iarr.length ids in
  if Iarr.length off <> count + 1 || Iarr.get off 0 <> 0 || Iarr.get off count <> Iarr.length tgt
  then invalid_arg "Graph.of_csr: off must hold n+1 offsets from 0 to the length of tgt";
  check_distinct_ids ids;
  let max_degree = ref 0 in
  for v = 0 to count - 1 do
    let lo = Iarr.get off v and hi = Iarr.get off (v + 1) in
    if hi < lo then invalid_arg "Graph.of_csr: offsets must not decrease";
    if hi - lo > !max_degree then max_degree := hi - lo;
    for e = lo to hi - 1 do
      let w = Iarr.get tgt e in
      if w < 0 || w >= count then invalid_arg "Graph.create: neighbor out of range";
      if w = v then invalid_arg "Graph.create: self-loop";
      for e' = lo to e - 1 do
        if Iarr.get tgt e' = w then invalid_arg "Graph.create: parallel edge"
      done
    done
  done;
  (* Symmetry: every directed edge must have its reverse.  A row scan on
     the far endpoint replaces the old hashtable witness; degrees are
     bounded, so this stays O(m·Δ). *)
  for v = 0 to count - 1 do
    for e = Iarr.get off v to Iarr.get off (v + 1) - 1 do
      let w = Iarr.get tgt e in
      let ok = ref false in
      for e' = Iarr.get off w to Iarr.get off (w + 1) - 1 do
        if Iarr.get tgt e' = v then ok := true
      done;
      if not !ok then invalid_arg "Graph.create: asymmetric adjacency"
    done
  done;
  { ids; off; tgt; id_index = None; max_degree = !max_degree }

let create ~ids ~adj =
  let count = Array.length ids in
  if Array.length adj <> count then invalid_arg "Graph.create: ids/adj length mismatch";
  let off = Iarr.create (count + 1) in
  Iarr.set off 0 0;
  for v = 0 to count - 1 do
    Iarr.set off (v + 1) (Iarr.get off v + Array.length adj.(v))
  done;
  let tgt = Iarr.create (Iarr.get off count) in
  Array.iteri (fun v row -> Array.iteri (fun i w -> Iarr.set tgt (Iarr.get off v + i) w) row) adj;
  of_csr ~ids:(Iarr.of_array ids) ~off ~tgt

let of_edges ?ids ~n:count edges =
  let buckets = Array.make count [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= count || v < 0 || v >= count then
        invalid_arg "Graph.of_edges: endpoint out of range";
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v))
    edges;
  let adj = Array.map (fun l -> Array.of_list (List.rev l)) buckets in
  let ids = match ids with Some a -> a | None -> Array.init count (fun v -> v + 1) in
  create ~ids ~adj

let nodes g = List.init (n g) Fun.id

let iter_nodes g f =
  for v = 0 to n g - 1 do
    f v
  done

let edges g =
  let acc = ref [] in
  iter_nodes g (fun v -> iter_neighbors g v (fun w -> if v < w then acc := (v, w) :: !acc));
  !acc

let fold_nodes g ~init ~f =
  let acc = ref init in
  iter_nodes g (fun v -> acc := f !acc v);
  !acc

let is_connected g =
  let count = n g in
  if count = 0 then true
  else begin
    let seen = Array.make count false in
    let queue = Array.make count 0 in
    seen.(0) <- true;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let v = queue.(!head) in
      incr head;
      iter_neighbors g v (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            queue.(!tail) <- w;
            incr tail
          end)
    done;
    !tail = count
  end

let relabel_ids g ~ids =
  create ~ids ~adj:(Array.init (n g) (fun v -> neighbors g v))

let shuffle_ids g ~rng =
  let count = n g in
  let perm = Array.init count (fun v -> v + 1) in
  for i = count - 1 downto 1 do
    let j = Vc_rng.Splitmix.int rng ~bound:(i + 1) in
    let tmp = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- tmp
  done;
  relabel_ids g ~ids:perm

let pp ppf g =
  iter_nodes g (fun v ->
      Fmt.pf ppf "@[node %d (id %d):" v (Iarr.get g.ids v);
      for p = 1 to degree g v do
        Fmt.pf ppf " %d->%d" p (Iarr.get g.tgt (Iarr.get g.off v + p - 1))
      done;
      Fmt.pf ppf "@]@.")
