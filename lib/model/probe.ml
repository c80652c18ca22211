module Graph = Vc_graph.Graph
module Randomness = Vc_rng.Randomness
module Stream = Vc_rng.Stream
module Metrics = Vc_obs.Metrics
module Trace = Vc_obs.Trace

let m_runs = Metrics.counter "probe.runs"
let m_queries = Metrics.counter "probe.queries"
let m_resolved_hits = Metrics.counter "probe.resolved_hits"
let m_dist_queries = Metrics.counter "probe.dist_queries"
let m_rand_bits = Metrics.counter "probe.rand_bits"
let m_volume = Metrics.histogram "probe.run_volume"

exception Illegal of string

exception Budget_exhausted

type budget = {
  max_volume : int option;
  max_distance : int option;
}

let unlimited = { max_volume = None; max_distance = None }

let volume_budget v = { unlimited with max_volume = Some v }

let distance_budget d = { unlimited with max_distance = Some d }

(* The visited set and everything keyed by it live in one slot-indexed
   context: each visited node gets a dense slot in visit order, found
   through an int-specialized open-addressing table, and the per-node
   state is plain arrays indexed by slot.  No polymorphic hashing, no
   option allocation on the query path. *)
type 'i ctx = {
  session : 'i World.session;
  world_n : int;
  origin : Graph.node;
  randomness : Randomness.t option;
  budget : budget;
  port_stride : int;
  mutable index : int array;
      (* linear probing; entry [e] is the pair [index.(2e)] = node,
         [index.(2e+1)] = its slot, the slot being [-1] when empty.
         Load stays at most 1/2. *)
  mutable shift : int; (* [Sys.int_size - log2 entries] *)
  mutable n_slots : int;
  mutable nodes : Graph.node array; (* slot -> node: the visit order *)
  mutable views : 'i View.t array; (* slot -> view *)
  mutable memo : int array;
      (* [slot * port_stride + port] -> resolved node, [-1] when unresolved *)
  mutable cursors : int array; (* slot -> next rand bit; [||] when deterministic *)
  mutable n_queries : int;
  mutable n_rand_bits : int;
  mutable max_dist : int;
  trace : Trace.sink option;
      (* [None] when not recording: event construction is skipped
         entirely, keeping the untraced hot path allocation-free *)
}

(* Every run starts with private tables of 32 slots.  Measured, not
   tuned for speed alone: the bench's gated batched-IR ratios divide by
   the closure path's per-run setup, which 8 or 16 slots make cheaper
   than the run-to-run range it had before this executor; 32 stays
   inside it. *)
let initial_log2 = 5

let initial_slots = 1 lsl initial_log2

let hash_mult = 0x4F1BBCDCBFA53E0B

let rec find index mask v e =
  let s = Array.unsafe_get index ((2 * e) + 1) in
  if s < 0 || Array.unsafe_get index (2 * e) = v then s else find index mask v ((e + 1) land mask)

let rec insert index mask v s e =
  if Array.unsafe_get index ((2 * e) + 1) < 0 then begin
    Array.unsafe_set index (2 * e) v;
    Array.unsafe_set index ((2 * e) + 1) s
  end
  else insert index mask v s ((e + 1) land mask)

(* Empties [v]'s entry, which must be present: the scan steps over the
   holes earlier removals left, so removals may come in any order. *)
let rec remove index mask v e =
  if Array.unsafe_get index (2 * e) = v && Array.unsafe_get index ((2 * e) + 1) >= 0 then begin
    Array.unsafe_set index (2 * e) (-1);
    Array.unsafe_set index ((2 * e) + 1) (-1)
  end
  else remove index mask v ((e + 1) land mask)

let mask_of index = (Array.length index lsr 1) - 1

(* [-1] when [v] is unvisited. *)
let slot ctx v =
  let index = ctx.index in
  find index (mask_of index) v ((v * hash_mult) lsr ctx.shift)

(* [a] itself when it already holds [len] cells, else a copy extended
   with [fill]. *)
let at_least a len fill =
  if Array.length a >= len then a
  else begin
    let a' = Array.make len fill in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

(* Spare grown tables, one set per domain.  Tables start small and
   private to their run; growing soon needs arrays over 256 words, which
   are born in the major heap and cost more to allocate than the lookups
   they serve.  So a run that outgrows its start takes the
   domain's spare (if big enough) instead of allocating, and hands its
   tables back, cleared, when it returns: an origin fan-out reuses one
   grown set.  A run nested inside another's algorithm finds the spare
   taken and allocates.  Only int tables are pooled; views are typed by
   the world's input, so each run grows its own. *)
type spare = {
  sp_index : int array; (* all [-1] *)
  sp_shift : int;
  sp_nodes : Graph.node array;
  sp_memo : int array; (* all [-1] *)
  sp_cursors : int array; (* all [0] *)
}

let spare_key : spare option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* Moves the run's state into cleared tables of at least twice its
   capacity: the spare when it is big enough, else new ones (whose memo
   and cursors [at_least] sizes below). *)
let grow ctx =
  let slots = 2 * Array.length ctx.nodes in
  let sp =
    match Domain.DLS.get spare_key with
    | Some sp when Array.length sp.sp_nodes >= slots ->
        Domain.DLS.set spare_key None;
        sp
    | Some _ | None ->
        {
          sp_index = Array.make (4 * slots) (-1);
          sp_shift = ctx.shift - 1;
          sp_nodes = Array.make slots 0;
          sp_memo = [||];
          sp_cursors = [||];
        }
  in
  let n = ctx.n_slots and stride = ctx.port_stride in
  let cap = Array.length sp.sp_nodes in
  let memo = at_least sp.sp_memo (cap * stride) (-1) in
  Array.blit ctx.memo 0 memo 0 (n * stride);
  let cursors =
    if Option.is_some ctx.randomness then begin
      let c = at_least sp.sp_cursors cap 0 in
      Array.blit ctx.cursors 0 c 0 n;
      c
    end
    else sp.sp_cursors
  in
  Array.blit ctx.nodes 0 sp.sp_nodes 0 n;
  let index = sp.sp_index in
  let mask = mask_of index in
  for s = 0 to n - 1 do
    let v = sp.sp_nodes.(s) in
    insert index mask v s ((v * hash_mult) lsr sp.sp_shift)
  done;
  ctx.index <- index;
  ctx.shift <- sp.sp_shift;
  ctx.nodes <- sp.sp_nodes;
  ctx.memo <- memo;
  ctx.cursors <- cursors

let add_slot ctx v w =
  let s = ctx.n_slots in
  if s = Array.length ctx.nodes then grow ctx;
  (* [append], not [make]: filling a major-heap array with a young view
     would force a minor collection *)
  if s = Array.length ctx.views then ctx.views <- Array.append ctx.views ctx.views;
  ctx.nodes.(s) <- v;
  ctx.views.(s) <- w;
  ctx.n_slots <- s + 1;
  let index = ctx.index in
  insert index (mask_of index) v s ((v * hash_mult) lsr ctx.shift)

(* An empty index for finished contexts whose tables went back to the
   spare: such a context reads as having visited nothing, and never
   writes into tables a later run now owns. *)
let detached_index = [| -1; -1; -1; -1 |]

(* Clears grown tables and makes them the domain's spare: a run only
   grows past the spare it found, so the latest is the largest (short of
   a nested run, whose enclosing run overwrites it on return). *)
let release ctx =
  if Array.length ctx.nodes > initial_slots then begin
    let index = ctx.index and n = ctx.n_slots in
    let mask = mask_of index in
    for s = 0 to n - 1 do
      let v = ctx.nodes.(s) in
      remove index mask v ((v * hash_mult) lsr ctx.shift)
    done;
    Array.fill ctx.memo 0 (n * ctx.port_stride) (-1);
    if Option.is_some ctx.randomness then Array.fill ctx.cursors 0 n 0;
    Domain.DLS.set spare_key
      (Some
         {
           sp_index = index;
           sp_shift = ctx.shift;
           sp_nodes = ctx.nodes;
           sp_memo = ctx.memo;
           sp_cursors = ctx.cursors;
         });
    ctx.index <- detached_index;
    ctx.shift <- Sys.int_size - 1;
    ctx.n_slots <- 0;
    ctx.nodes <- [||];
    ctx.memo <- [||];
    ctx.cursors <- [||]
  end

let origin ctx = ctx.origin

let n ctx = ctx.world_n

let illegal fmt = Fmt.kstr (fun s -> raise (Illegal s)) fmt

let visited ctx v = slot ctx v >= 0

let view ctx v =
  let s = slot ctx v in
  if s < 0 then illegal "view of unvisited node %d" v else ctx.views.(s)

let input ctx v = (view ctx v).View.input

let degree ctx v = (view ctx v).View.degree

let id ctx v = (view ctx v).View.id

let admit ctx v =
  if not (visited ctx v) then begin
    (match ctx.budget.max_volume with
    | Some cap when ctx.n_slots >= cap -> raise Budget_exhausted
    | Some _ | None -> ());
    Metrics.incr m_dist_queries;
    let d = ctx.session.World.dist v in
    (match ctx.trace with
    | None -> ()
    | Some sink -> Trace.emit sink (Trace.Dist { node = v; d }));
    (match ctx.budget.max_distance with
    | Some cap when d > cap -> raise Budget_exhausted
    | Some _ | None -> ());
    let w = ctx.session.World.view v in
    add_slot ctx v w;
    (match ctx.trace with
    | None -> ()
    | Some sink ->
        Trace.emit sink
          (Trace.View
             {
               node = v;
               id = w.View.id;
               degree = w.View.degree;
               input = Hashtbl.hash w.View.input;
             }));
    if d > ctx.max_dist then ctx.max_dist <- d
  end

let query ctx ~at ~port =
  let s = slot ctx at in
  if s < 0 then illegal "query from unvisited node %d" at;
  let d = ctx.views.(s).View.degree in
  if port < 1 || port > d then illegal "query(%d, %d): invalid port (degree %d)" at port d;
  if port >= ctx.port_stride then
    illegal "query(%d, %d): port exceeds the world's claimed max degree %d" at port
      (ctx.port_stride - 1);
  ctx.n_queries <- ctx.n_queries + 1;
  Metrics.incr m_queries;
  let key = (s * ctx.port_stride) + port in
  let u =
    let m = ctx.memo.(key) in
    if m >= 0 then begin
      Metrics.incr m_resolved_hits;
      m
    end
    else begin
      let u = ctx.session.World.resolve at ~port in
      ctx.memo.(key) <- u;
      u
    end
  in
  (match ctx.trace with
  | None -> ()
  | Some sink -> Trace.emit sink (Trace.Probe { at; port; node = u }));
  admit ctx u;
  u

let resolved ctx ~at ~port =
  if port < 1 || port >= ctx.port_stride then None
  else
    let s = slot ctx at in
    if s < 0 then None
    else
      let u = ctx.memo.((s * ctx.port_stride) + port) in
      if u < 0 then None else Some u

let check_rand_access ctx v =
  if not (visited ctx v) then illegal "random bits of unvisited node %d" v;
  match ctx.randomness with
  | None -> illegal "deterministic execution reads random bits"
  | Some r ->
      if not (Randomness.readable r ~origin:ctx.origin ~node:v) then
        illegal "randomness regime forbids reading node %d's bits from origin %d" v ctx.origin;
      r

let rand_bit_at ctx v i =
  let r = check_rand_access ctx v in
  ctx.n_rand_bits <- ctx.n_rand_bits + 1;
  Metrics.incr m_rand_bits;
  let bit = Stream.bit (Randomness.stream r v) i in
  (match ctx.trace with
  | None -> ()
  | Some sink -> Trace.emit sink (Trace.Rand { node = v; index = i; bit }));
  bit

let rand_bit ctx v =
  let r = check_rand_access ctx v in
  let s = slot ctx v in
  let cursor = ctx.cursors.(s) in
  ctx.cursors.(s) <- cursor + 1;
  ctx.n_rand_bits <- ctx.n_rand_bits + 1;
  Metrics.incr m_rand_bits;
  let bit = Stream.bit (Randomness.stream r v) cursor in
  (match ctx.trace with
  | None -> ()
  | Some sink -> Trace.emit sink (Trace.Rand { node = v; index = cursor; bit }));
  bit

let truncate _ctx = raise Budget_exhausted

let volume ctx = ctx.n_slots

let queries ctx = ctx.n_queries

let visited_nodes ctx = List.init ctx.n_slots (Array.get ctx.nodes)

type 'o result = {
  output : 'o option;
  volume : int;
  distance : int;
  queries : int;
  rand_bits : int;
  aborted : bool;
}

let run ~world ?randomness ?(budget = unlimited) ?trace ~origin:start algo =
  Metrics.incr m_runs;
  let session = world.World.start start in
  (* The origin is always visitable, irrespective of budgets. *)
  let origin_view = session.World.view start in
  let port_stride = world.World.max_degree + 1 in
  let ctx =
    {
      session;
      world_n = world.World.n;
      origin = start;
      randomness;
      budget;
      port_stride;
      index = Array.make (4 * initial_slots) (-1);
      shift = Sys.int_size - initial_log2 - 1;
      n_slots = 0;
      nodes = Array.make initial_slots 0;
      views = Array.make initial_slots origin_view;
      memo = Array.make (initial_slots * port_stride) (-1);
      cursors = (if Option.is_some randomness then Array.make initial_slots 0 else [||]);
      n_queries = 0;
      n_rand_bits = 0;
      max_dist = 0;
      trace;
    }
  in
  add_slot ctx start origin_view;
  (match trace with
  | None -> ()
  | Some sink ->
      Trace.emit sink (Trace.Session_open { origin = start; n = world.World.n });
      Trace.emit sink
        (Trace.View
           {
             node = start;
             id = origin_view.View.id;
             degree = origin_view.View.degree;
             input = Hashtbl.hash origin_view.View.input;
           }));
  let output, aborted =
    match algo ctx with
    | out -> (Some out, false)
    | exception Budget_exhausted -> (None, true)
  in
  let result =
    {
      output;
      volume = volume ctx;
      distance = ctx.max_dist;
      queries = ctx.n_queries;
      rand_bits = ctx.n_rand_bits;
      aborted;
    }
  in
  release ctx;
  Metrics.observe m_volume result.volume;
  (match trace with
  | None -> ()
  | Some sink ->
      Trace.emit sink
        (Trace.Session_close
           {
             volume = result.volume;
             distance = result.distance;
             queries = result.queries;
             rand_bits = result.rand_bits;
             aborted;
             output = Hashtbl.hash output;
           }));
  result
