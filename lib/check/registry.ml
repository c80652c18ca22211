module Graph = Vc_graph.Graph
module Builder = Vc_graph.Builder
module TL = Vc_graph.Tree_labels
module Splitmix = Vc_rng.Splitmix
module Randomness = Vc_rng.Randomness
module World = Vc_model.World
module Probe = Vc_model.Probe
module Lcl = Vc_lcl.Lcl
module Runner = Vc_measure.Runner
module Pool = Vc_exec.Pool
module Trace = Vc_obs.Trace
module Ir = Vc_ir.Ir
module Ir_exec = Vc_ir.Exec
module Ir_lib = Vc_ir.Library
module TR = Volcomp.Trivial_lcl
module CC = Volcomp.Cycle_coloring
module SO = Volcomp.Sinkless
module LC = Volcomp.Leaf_coloring
module LCC = Volcomp.Leaf_coloring_congest
module PL = Volcomp.Promise_leaf
module BT = Volcomp.Balanced_tree
module BTC = Volcomp.Balanced_tree_congest
module H = Volcomp.Hierarchical_thc
module Hy = Volcomp.Hybrid_thc
module HH = Volcomp.Hh_thc
module Gap = Volcomp.Gap_example
module Family = Vc_family.Family
module F4 = Vc_family.Coloring4
module FM = Vc_family.Matching
module FI = Vc_family.Mis
module Snap = Vc_snap.Snap
module Store = Vc_snap.Store
module Iarr = Vc_graph.Iarr

type solver_outcome = {
  solver : string;
  randomized : bool;
  stats : Runner.stats;
  valid : bool;
}

type probe_summary = {
  pr_solver : string;
  pr_volume : int;
  pr_distance : int;
  pr_queries : int;
  pr_rand_bits : int;
  pr_aborted : bool;
  pr_output : int;
}

type trial = {
  t_n : int;
  t_source : [ `Built | `Snapshot ];
  run_solvers : ?pool:Pool.t -> unit -> solver_outcome list;
  probe_origin :
    ?trace:Vc_obs.Trace.sink -> origin:int -> unit -> (probe_summary, string) result;
  merge_consistency : widths:int list -> (unit, string) result;
  cross_model : (string * (unit -> (unit, string) result)) list;
  lazy_vs_eager : unit -> (unit, string) result;
  ir_vs_closure : (unit -> (unit, string) result) option;
  mutate : Splitmix.t -> Mutate.outcome list;
  trace_record : path:string -> header:Vc_obs.Json.t -> origin:int -> (unit, string) result;
  trace_replay : events:Trace.event list -> origin:int -> (unit, string) result;
  trace_roundtrip : unit -> (unit, string) result;
}

type entry = {
  name : string;
  family : string;
  radius : int;
  sizes : int list;
  quick_sizes : int list;
  ir : bool;
  make : ?store:Store.t -> size:int -> seed:int64 -> unit -> trial;
  acquire : ?store:Store.t -> size:int -> seed:int64 -> unit -> int;
}

(* --- shared helpers ------------------------------------------------------ *)

let assemble outputs =
  let missing = Array.fold_left (fun c o -> if o = None then c + 1 else c) 0 outputs in
  if missing > 0 then Error (Fmt.str "%d of %d nodes undecided" missing (Array.length outputs))
  else Ok (Array.map (function Some o -> o | None -> assert false) outputs)

let first_violation = function
  | v :: _ -> Fmt.str "%a" Lcl.pp_violation v
  | [] -> "invalid (no violation record)"

let congest_check ~problem ~graph ~input (result : _ Vc_model.Congest.result) =
  match assemble result.Vc_model.Congest.outputs with
  | Error e -> Error ("congest: " ^ e)
  | Ok out -> (
      match Lcl.check problem graph ~input ~output:(fun v -> out.(v)) with
      | Ok () -> Ok ()
      | Error vs -> Error ("congest output invalid: " ^ first_violation vs))

let pick rng = function
  | [] -> None
  | xs -> Some (List.nth xs (Splitmix.int rng ~bound:(List.length xs)))

let nodes_where graph p = List.filter p (Graph.nodes graph)

(* A mutant that only touches the (already copied) output array. *)
let out_mutant site out = Some { Mutate.site; input = None; output = (fun v -> out.(v)) }

let any_node rng out = Splitmix.int rng ~bound:(Array.length out)

(* Package one concrete instance as a trial.  The reference output (the
   mutation fuzzer's starting point) is the first deterministic solver's,
   computed lazily once per trial; per-solver randomness is derived from
   the trial seed and the solver's position, so every probe is
   reproducible from the trial's (size, seed) alone. *)
let make_trial (type i o) ~(problem : (i, o) Lcl.t) ~graph ~(input : Graph.node -> i) ~world
    ~(solvers : (i, o) Lcl.solver list) ?(regime = Randomness.Private) ?(cross_model = []) ?ir
    ?(source = `Built)
    ~(mutants : (string * (Splitmix.t -> o array -> (i, o) Mutate.t option)) list) ~seed () :
    trial =
  let n = Graph.n graph in
  let randomness_for idx (s : _ Lcl.solver) =
    if s.Lcl.randomized then
      Some (Randomness.create ~regime ~seed:(Int64.add seed (Int64.of_int (1 + idx))) ~n ())
    else None
  in
  let run_solvers ?pool () =
    List.mapi
      (fun idx s ->
        let stats, valid =
          Runner.solve_and_check ~world ~problem ~graph ~input ~solver:s
            ?randomness:(randomness_for idx s) ?pool ()
        in
        { solver = s.Lcl.solver_name; randomized = s.Lcl.randomized; stats; valid })
      solvers
  in
  let ref_solver =
    match List.find_opt (fun s -> not s.Lcl.randomized) solvers with
    | Some s -> s
    | None -> List.hd solvers
  in
  let merge_consistency ~widths =
    let run ?pool () =
      fst
        (Runner.solve_and_check ~world ~problem ~graph ~input ~solver:ref_solver
           ?randomness:(randomness_for 0 ref_solver) ?pool ())
    in
    let base = run () in
    List.fold_left
      (fun acc w ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            let stats = Pool.with_pool ~domains:w (fun pool -> run ~pool ()) in
            if stats = base then Ok ()
            else
              Error
                (Fmt.str "%s: stats at pool width %d differ from sequential"
                   ref_solver.Lcl.solver_name w))
      (Ok ()) widths
  in
  let reference =
    lazy
      (let stats, outs =
         Runner.measure ~world ~solver:ref_solver ?randomness:(randomness_for 0 ref_solver)
           ~origins:(Graph.nodes graph) ()
       in
       if stats.Runner.aborted > 0 then Error "reference solver aborted"
       else
         let arr = Array.make n None in
         List.iter (fun (v, o) -> arr.(v) <- Some o) outs;
         match assemble arr with
         | Error e -> Error ("reference: " ^ e)
         | Ok out -> (
             match Lcl.check problem graph ~input ~output:(fun v -> out.(v)) with
             | Ok () -> Ok out
             | Error vs -> Error ("reference output invalid: " ^ first_violation vs)))
  in
  let mutate rng =
    match Lazy.force reference with
    | Error msg -> [ Mutate.reference_failure ~msg ]
    | Ok out ->
        List.filter_map
          (fun (kind, build) ->
            match build rng (Array.copy out) with
            | None -> None
            | Some m -> Some (Mutate.check ~problem ~graph ~input ~kind m))
          mutants
  in
  (* Differential probe: the lazy incremental-BFS world must be
     observationally identical to an eager full-BFS world — same output,
     volume, distance, queries, rand bits, abort flag — for every solver
     from every origin.  The eager twin claims the same [n] as the
     trial's world so budgets and [Probe.n] agree. *)
  let lazy_vs_eager () =
    let eager = World.of_graph_eager_claiming ~n:world.World.n graph ~input in
    let result = ref (Ok ()) in
    List.iteri
      (fun idx (s : _ Lcl.solver) ->
        if !result = Ok () then
          Graph.iter_nodes graph (fun origin ->
              if !result = Ok () then begin
                let probe w =
                  Probe.run ~world:w ?randomness:(randomness_for idx s) ~origin s.Lcl.solve
                in
                if probe world <> probe eager then
                  result :=
                    Error
                      (Fmt.str "%s: lazy and eager results diverge at origin %d"
                         s.Lcl.solver_name origin)
              end))
      solvers;
    !result
  in
  (* Oracle probe [ir]: the IR port must reproduce the reference closure solver bit
     for bit — output and full cost envelope — from every origin, under
     the reference interpreter and the batched executor alike.  Budgeted
     passes pin down the abort envelope too: a truncated IR run must
     abort at exactly the same (volume, distance, queries) as the
     truncated closure. *)
  let ir_vs_closure =
    Option.map
      (fun (spec : (i, o) Ir.spec) () ->
        match Ir.validate_spec spec with
        | Error e -> Error ("program does not validate: " ^ e)
        | Ok () ->
            let origins = Array.init n (fun v -> v) in
            let check_budget acc budget =
              match acc with
              | Error _ -> acc
              | Ok () ->
                  let eff = Ir.effective_budget spec.Ir.program budget in
                  let batch =
                    Ir_exec.run_batch ~claimed_n:world.World.n ~budget spec ~graph ~input
                      ~origins
                  in
                  let result = ref (Ok ()) in
                  Array.iteri
                    (fun i origin ->
                      if !result = Ok () then begin
                        let closure =
                          Probe.run ~world ~budget:eff ~origin ref_solver.Lcl.solve
                        in
                        let interp = Ir_exec.run ~budget spec ~world ~origin in
                        if closure <> interp then
                          result :=
                            Error
                              (Fmt.str "interpreter diverges from %s at origin %d"
                                 ref_solver.Lcl.solver_name origin)
                        else if interp <> batch.(i) then
                          result :=
                            Error (Fmt.str "batched executor diverges at origin %d" origin)
                      end)
                    origins;
                  !result
            in
            List.fold_left check_budget (Ok ())
              [ Probe.unlimited; Probe.volume_budget 5; Probe.distance_budget 2 ])
      ir
  in
  (* Record/replay probes.  A fresh [Randomness] is built per run from
     the trial seed, so a recording run and its replay read identical
     random bits — the transcript must therefore match event for
     event. *)
  let reference_run ?trace origin =
    Probe.run ~world ?randomness:(randomness_for 0 ref_solver) ?trace ~origin
      ref_solver.Lcl.solve
  in
  (* One reference run from one origin, summarized — what the serving
     layer answers [probe] (and, with a ring sink, [trace]) requests
     with.  Deterministic: randomness derivation matches [run_solvers]. *)
  let probe_origin ?trace ~origin () =
    if origin < 0 || origin >= n then
      Error (Fmt.str "origin %d out of range (instance has %d nodes)" origin n)
    else
      let r = reference_run ?trace origin in
      Ok
        {
          pr_solver = ref_solver.Lcl.solver_name;
          pr_volume = r.Probe.volume;
          pr_distance = r.Probe.distance;
          pr_queries = r.Probe.queries;
          pr_rand_bits = r.Probe.rand_bits;
          pr_aborted = r.Probe.aborted;
          pr_output = Hashtbl.hash r.Probe.output;
        }
  in
  let trace_record ~path ~header ~origin =
    if origin < 0 || origin >= n then
      Error (Fmt.str "origin %d out of range (instance has %d nodes)" origin n)
    else begin
      let sink = Trace.to_file ~path ~header in
      Fun.protect
        ~finally:(fun () -> Trace.close sink)
        (fun () -> ignore (reference_run ~trace:sink origin : _ Probe.result));
      Ok ()
    end
  in
  let trace_replay ~events ~origin =
    if origin < 0 || origin >= n then
      Error (Fmt.str "origin %d out of range (instance has %d nodes)" origin n)
    else
      let sink = Trace.checking ~expect:events in
      match reference_run ~trace:sink origin with
      | (_ : _ Probe.result) -> Trace.checking_result sink
      | exception Trace.Replay_mismatch msg -> Error msg
  in
  (* Oracle probe [replay]: for every solver from every origin, record a transcript,
     push every event through its JSONL encoding and back, then re-drive
     the run against the decoded transcript.  Both the event sequence and
     the final [Probe.result] must be bit-identical. *)
  let trace_roundtrip () =
    let result = ref (Ok ()) in
    List.iteri
      (fun idx (s : _ Lcl.solver) ->
        if !result = Ok () then
          Graph.iter_nodes graph (fun origin ->
              if !result = Ok () then begin
                let run ?trace () =
                  Probe.run ~world ?randomness:(randomness_for idx s) ?trace ~origin
                    s.Lcl.solve
                in
                let ring = Trace.ring () in
                let recorded = run ~trace:ring () in
                let decoded =
                  List.fold_left
                    (fun acc ev ->
                      match acc with
                      | Error _ -> acc
                      | Ok evs -> (
                          match Trace.event_of_json (Trace.event_to_json ev) with
                          | Ok ev' when Trace.equal_event ev ev' -> Ok (ev' :: evs)
                          | Ok _ ->
                              Error
                                (Fmt.str "%s: JSON round-trip altered {%a} at origin %d"
                                   s.Lcl.solver_name Trace.pp_event ev origin)
                          | Error msg ->
                              Error
                                (Fmt.str "%s: JSON round-trip failed at origin %d: %s"
                                   s.Lcl.solver_name origin msg)))
                    (Ok []) (Trace.events ring)
                in
                match decoded with
                | Error _ as e -> result := e
                | Ok rev_events -> (
                    let sink = Trace.checking ~expect:(List.rev rev_events) in
                    match run ~trace:sink () with
                    | exception Trace.Replay_mismatch msg ->
                        result :=
                          Error (Fmt.str "%s at origin %d: %s" s.Lcl.solver_name origin msg)
                    | replayed ->
                        if replayed <> recorded then
                          result :=
                            Error
                              (Fmt.str "%s: replayed result differs at origin %d"
                                 s.Lcl.solver_name origin)
                        else (
                          match Trace.checking_result sink with
                          | Ok () -> ()
                          | Error msg ->
                              result :=
                                Error
                                  (Fmt.str "%s at origin %d: %s" s.Lcl.solver_name origin msg)))
              end))
      solvers;
    !result
  in
  {
    t_n = n;
    t_source = source;
    run_solvers;
    probe_origin;
    merge_consistency;
    cross_model;
    lazy_vs_eager;
    ir_vs_closure;
    mutate;
    trace_record;
    trace_replay;
    trace_roundtrip;
  }

(* --- snapshot codecs ------------------------------------------------------ *)

(* Bump whenever any instance builder's output changes: every existing
   snapshot becomes a structured miss and is rebuilt (and re-published)
   on the next touch — the store's only invalidation rule. *)
(* Bumped to v2 when the graph-family builders landed (torus, d-regular,
   expander): any v1 snapshot store must answer [None] (a cold build),
   never a stale instance. *)
let builder_version = "registry-v2"

let store ~dir = Store.create ~dir ~builder_version

(* One schema for every instance: the graph's CSR rows (the four [g.*]
   segments), then the problem's named int columns in [columns] order.
   [rebuild] reads them back through [col], which answers the named
   segment if it holds the stated number of words ([n] unless [~len]
   says otherwise) and fails the whole decode if not. *)
type col = ?len:int -> string -> Iarr.t

type 'inst schema = {
  graph : 'inst -> Graph.t;
  columns : 'inst -> (string * Iarr.t) list;
  rebuild : Graph.t -> col -> 'inst;
}

exception Missing_column

let encode s inst =
  let g = s.graph inst in
  ("g.meta", Iarr.of_array [| Graph.max_degree g |])
  :: ("g.ids", Graph.csr_ids g)
  :: ("g.off", Graph.csr_offsets g)
  :: ("g.tgt", Graph.csr_targets g)
  :: s.columns inst

(* Total: a missing or mis-sized segment is [None], which callers treat
   as a store miss and fall back to building.  The graph's rows are
   adopted as zero-copy views of the mapped file: the snapshot checksum
   stands in for [Graph.create]'s validation. *)
let decode s l =
  let n = l.Snap.hdr.Snap.n in
  let col ?(len = n) name =
    match Snap.seg_find l name with
    | Some a when Iarr.length a = len -> a
    | Some _ | None -> raise_notrace Missing_column
  in
  match
    let off = col ~len:(n + 1) "g.off" and meta = col ~len:1 "g.meta" in
    let tgt = col ~len:(Iarr.get off n) "g.tgt" in
    s.rebuild (Graph.unsafe_of_csr ~ids:(col "g.ids") ~off ~tgt ~max_degree:(Iarr.get meta 0)) col
  with
  | inst -> Some inst
  | exception Missing_column -> None

let n_of s inst = Graph.n (s.graph inst)
let plain_graph = { graph = Fun.id; columns = (fun _ -> []); rebuild = (fun g _ -> g) }
let int_of_color = function TL.Red -> 0 | TL.Blue -> 1
let color_of_int i = if i = 0 then TL.Red else TL.Blue
let int_of_bool b = if b then 1 else 0

(* Per-node label records, one column per [(name, field)]: [rows] hands
   [make] a reader of the node's [k]-th field, in [fields] order. *)
let per_node labels fields =
  List.map (fun (name, f) -> (name, Iarr.init (Array.length labels) (fun v -> f labels.(v)))) fields

let rows graph (col : col) fields make =
  let cols = Array.of_list (List.map (fun (name, _) -> col name) fields) in
  Array.init (Graph.n graph) (fun v -> make (fun k -> Iarr.get cols.(k) v))

let lc_columns (i : LC.instance) =
  let tl = i.LC.labels in
  [ ("tl.parent", tl.TL.parent); ("tl.left", tl.TL.left); ("tl.right", tl.TL.right) ]
  @ per_node i.LC.colors [ ("lc.color", int_of_color) ]

let lc_rebuild graph (col : col) =
  let color = col "lc.color" in
  let labels = { TL.parent = col "tl.parent"; left = col "tl.left"; right = col "tl.right" } in
  let colors = Array.init (Graph.n graph) (fun v -> color_of_int (Iarr.get color v)) in
  { LC.graph; labels; colors }

let lc_schema = { graph = (fun i -> i.LC.graph); columns = lc_columns; rebuild = lc_rebuild }

let h_schema ~k =
  { graph = (fun i -> i.H.base.LC.graph); columns = (fun i -> lc_columns i.H.base);
    rebuild = (fun g col -> { H.base = lc_rebuild g col; k }) }

let bt_schema =
  let fields =
    [ ("bt.parent", fun i -> i.BT.parent); ("bt.left", fun i -> i.BT.left);
      ("bt.right", fun i -> i.BT.right); ("bt.left_nbr", fun i -> i.BT.left_nbr);
      ("bt.right_nbr", fun i -> i.BT.right_nbr) ]
  in
  let row f = { BT.parent = f 0; left = f 1; right = f 2; left_nbr = f 3; right_nbr = f 4 } in
  { graph = (fun i -> i.BT.graph); columns = (fun i -> per_node i.BT.labels fields);
    rebuild = (fun graph col -> { BT.graph; labels = rows graph col fields row }) }

let hy_fields =
  [ ("hy.parent", fun i -> i.Hy.parent); ("hy.left", fun i -> i.Hy.left);
    ("hy.right", fun i -> i.Hy.right); ("hy.left_nbr", fun i -> i.Hy.left_nbr);
    ("hy.right_nbr", fun i -> i.Hy.right_nbr); ("hy.color", fun i -> int_of_color i.Hy.color);
    ("hy.level", fun i -> i.Hy.level) ]

let hy_row f =
  { Hy.parent = f 0; left = f 1; right = f 2; left_nbr = f 3; right_nbr = f 4;
    color = color_of_int (f 5); level = f 6 }

let hy_schema ~k =
  { graph = (fun i -> i.Hy.graph); columns = (fun i -> per_node i.Hy.labels hy_fields);
    rebuild = (fun graph col -> { Hy.graph; labels = rows graph col hy_fields hy_row; k }) }

(* HH-THC's labels are Hybrid's columns plus the bit. *)
let hh_schema ~k ~level =
  let fields =
    List.map (fun (name, f) -> (name, fun i -> f i.HH.hy)) hy_fields
    @ [ ("hh.bit", fun i -> int_of_bool i.HH.bit) ]
  in
  let row f = { HH.hy = hy_row f; bit = f (List.length hy_fields) <> 0 } in
  { graph = (fun i -> i.HH.graph); columns = (fun i -> per_node i.HH.labels fields);
    rebuild = (fun graph col -> { HH.graph; labels = rows graph col fields row; k; l = level }) }

let gap_schema =
  let fields =
    [ ("gap.side", fun i -> match i.Gap.side with Gap.U -> 0 | Gap.V -> 1);
      ("gap.index", fun i -> i.Gap.index); ("gap.depth", fun i -> i.Gap.depth);
      ("gap.bit", fun i -> match i.Gap.bit with None -> 0 | Some false -> 1 | Some true -> 2) ]
  in
  let row f =
    { Gap.side = (if f 0 = 0 then Gap.U else Gap.V); index = f 1; depth = f 2;
      bit = (match f 3 with 0 -> None | 1 -> Some false | _ -> Some true) }
  in
  let rebuild graph (col : col) =
    (* two depth-d trees: n = 2 (2^{d+1} - 1) nodes and 2^d V-leaf bits *)
    let bits = col ~len:((Graph.n graph + 2) / 4) "gap.bits" in
    let bits = Array.init (Iarr.length bits) (fun j -> Iarr.get bits j <> 0) in
    { Gap.graph; inputs = rows graph col fields row; bits }
  in
  let columns i =
    per_node i.Gap.inputs fields @ per_node i.Gap.bits [ ("gap.bits", int_of_bool) ]
  in
  { graph = (fun i -> i.Gap.graph); columns; rebuild }

(* Store consultation shared by every entry: a hit decodes zero-copy
   views of the mapped file; a miss builds and (best-effort) publishes,
   so a configured store self-populates — the property the shard tier's
   post-kill re-warm relies on. *)
let acquire_with ?store:st ~problem ~schema ~build ~size ~seed () =
  match st with
  | None -> (build (), `Built)
  | Some st -> (
      match Store.load st ~problem ~size ~seed with
      | Some l -> (
          match decode schema l with Some inst -> (inst, `Snapshot) | None -> (build (), `Built))
      | None ->
          let inst = build () in
          ignore
            (Store.publish st ~problem ~size ~seed ~n:(n_of schema inst)
               ~segments:(encode schema inst)
              : bool);
          (inst, `Built))

let snap_entry ~name ~family ~radius ~sizes ~quick_sizes ~ir ~schema ~build ~trial_of =
  let acquire_inst ?store ~size ~seed () =
    acquire_with ?store ~problem:name ~schema ~build:(fun () -> build ~size ~seed) ~size ~seed
      ()
  in
  {
    name;
    family;
    radius;
    sizes;
    quick_sizes;
    ir;
    make =
      (fun ?store ~size ~seed () ->
        let inst, source = acquire_inst ?store ~size ~seed () in
        trial_of ~seed ~source inst);
    acquire =
      (fun ?store ~size ~seed () -> n_of schema (fst (acquire_inst ?store ~size ~seed ())));
  }

(* --- entries, in paper order --------------------------------------------- *)

let degree_parity =
  let problem = TR.problem in
  snap_entry ~name:problem.Lcl.name ~family:"cubic" ~radius:problem.Lcl.radius
    ~sizes:[ 24; 40 ] ~quick_sizes:[ 16 ] ~ir:true ~schema:plain_graph
    ~build:(fun ~size ~seed -> Gen.build { Gen.shape = Gen.Cubic; size; g_seed = seed })
    ~trial_of:(fun ~seed ~source graph ->
      let input _ = () in
      make_trial ~problem ~graph ~input ~world:(TR.world graph) ~solvers:TR.solvers
        ~ir:Ir_lib.degree_parity
        ~mutants:
          [
            ( "flip-parity",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <- (match out.(v) with TR.Even -> TR.Odd | TR.Odd -> TR.Even);
                out_mutant v out );
          ]
        ~source ~seed ())

let cycle_coloring =
  let problem = CC.problem in
  snap_entry ~name:problem.Lcl.name ~family:"cycle" ~radius:problem.Lcl.radius
    ~sizes:[ 16; 33 ] ~quick_sizes:[ 9 ] ~ir:true ~schema:plain_graph
    ~build:(fun ~size ~seed ->
      (* shuffled identifiers vary the ColeâVishkin trajectory per seed *)
      Graph.shuffle_ids (Builder.cycle (max 3 size)) ~rng:(Splitmix.create seed))
    ~trial_of:(fun ~seed ~source graph ->
      let input _ = () in
      make_trial ~problem ~graph ~input ~world:(CC.world graph) ~solvers:CC.solvers
        ~ir:(Ir_lib.cycle_coloring ~n:(Graph.n graph))
        ~mutants:
          [
            ( "copy-neighbor",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <- out.(Graph.neighbor graph v 1);
                out_mutant v out );
            ( "out-of-palette",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <- 3;
                out_mutant v out );
          ]
        ~source ~seed ())

let sinkless =
  let problem = SO.problem in
  snap_entry ~name:problem.Lcl.name ~family:"cubic" ~radius:problem.Lcl.radius
    ~sizes:[ 20; 32 ] ~quick_sizes:[ 12 ] ~ir:false ~schema:plain_graph
    ~build:(fun ~size ~seed -> SO.random_cubic ~n:(max 8 size) ~seed)
    ~trial_of:(fun ~seed ~source graph ->
      let input _ = () in
      let flip = function SO.Outgoing -> SO.Incoming | SO.Incoming -> SO.Outgoing in
      make_trial ~problem ~graph ~input ~world:(SO.world graph) ~solvers:SO.solvers
        ~mutants:
          [
            ( "swap-port",
              fun rng out ->
                let v = any_node rng out in
                let p = Splitmix.int rng ~bound:(Graph.degree graph v) in
                (* replace, don't mutate: the inner array is shared with
                   the reference output *)
                let a = Array.copy out.(v) in
                a.(p) <- flip a.(p);
                out.(v) <- a;
                out_mutant v out );
            ( "make-sink",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <- Array.make (Graph.degree graph v) SO.Incoming;
                out_mutant v out );
          ]
        ~source ~seed ())

(* Mutation kinds shared by LeafColoring and its promise variant. *)
let lc_mutants inst =
  let graph = inst.LC.graph in
  let leaves =
    nodes_where graph (fun v -> TL.equal_status (TL.status graph inst.LC.labels v) TL.Leaf)
  in
  [
    ( "relabel-node",
      fun rng out ->
        let v = any_node rng out in
        out.(v) <- TL.flip_color out.(v);
        out_mutant v out );
    ( "recolor-leaf",
      fun rng out ->
        match pick rng leaves with
        | None -> None
        | Some v ->
            out.(v) <- TL.flip_color out.(v);
            out_mutant v out );
    ( "break-input-color",
      fun rng out ->
        match pick rng leaves with
        | None -> None
        | Some v ->
            let base = LC.input inst in
            let mutated u =
              if u = v then { (base u) with LC.color = TL.flip_color (base u).LC.color }
              else base u
            in
            Some { Mutate.site = v; input = Some mutated; output = (fun u -> out.(u)) } );
  ]

let leaf_coloring =
  let problem = LC.problem in
  snap_entry ~name:problem.Lcl.name ~family:"tree" ~radius:problem.Lcl.radius
    ~sizes:[ 31; 63 ] ~quick_sizes:[ 15 ] ~ir:true ~schema:lc_schema
    ~build:(fun ~size ~seed -> LC.random_instance ~n:size ~seed)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = inst.LC.graph in
      let input = LC.input inst in
      make_trial ~problem ~graph ~input ~world:(LC.world inst) ~solvers:LC.solvers
        ~cross_model:
          [ ("congest", fun () -> congest_check ~problem ~graph ~input (LCC.run inst ())) ]
        ~ir:Ir_lib.leaf_coloring ~mutants:(lc_mutants inst) ~source ~seed ())

let promise_leaf =
  let problem = LC.problem in
  snap_entry ~name:"PromiseLeafColoring (secret)" ~family:"tree" ~radius:problem.Lcl.radius
    ~sizes:[ 31; 63 ] ~quick_sizes:[ 15 ] ~ir:true ~schema:lc_schema
    ~build:(fun ~size ~seed ->
      let leaf_color = if Int64.logand seed 1L = 0L then TL.Red else TL.Blue in
      PL.promise_instance ~n:size ~leaf_color ~seed)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = inst.LC.graph in
      let input = LC.input inst in
      (* the promise entry's reference solver is [LC.solve_distance],
         exactly what the leaf-coloring program ports *)
      make_trial ~problem ~graph ~input ~world:(LC.world inst)
        ~solvers:(LC.solve_distance :: PL.solvers)
        ~regime:Randomness.Secret ~ir:Ir_lib.leaf_coloring ~mutants:(lc_mutants inst)
        ~source ~seed ())

let balanced_tree =
  let problem = BT.problem in
  snap_entry ~name:problem.Lcl.name ~family:"tree" ~radius:problem.Lcl.radius ~sizes:[ 3; 4 ]
    ~quick_sizes:[ 3 ] ~ir:false ~schema:bt_schema
    ~build:(fun ~size ~seed ->
      if Int64.logand seed 1L = 1L then BT.broken_pair_instance ~depth:size ~break:0
      else BT.balanced_instance ~depth:size)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = inst.BT.graph in
      let input = BT.input inst in
      (* consistent nodes whose output is forced by Definition 4.3:
         every leaf, and every incompatible internal node *)
      let forced =
        nodes_where graph (fun v ->
            match BT.status inst v with
            | TL.Inconsistent -> false
            | TL.Leaf -> true
            | TL.Internal -> not (BT.compatible inst v))
      in
      let laterals =
        nodes_where graph (fun v -> inst.BT.labels.(v).BT.left_nbr <> TL.bot)
      in
      let flip = function BT.Bal -> BT.Unbal | BT.Unbal -> BT.Bal in
      make_trial ~problem ~graph ~input ~world:(BT.world inst) ~solvers:BT.solvers
        ~cross_model:
          [ ("congest", fun () -> congest_check ~problem ~graph ~input (BTC.run inst ())) ]
        ~mutants:
          [
            ( "flip-verdict",
              fun rng out ->
                match pick rng forced with
                | None -> None
                | Some v ->
                    out.(v) <- { out.(v) with BT.verdict = flip out.(v).BT.verdict };
                    out_mutant v out );
            ( "swap-port",
              fun rng out ->
                match pick rng forced with
                | None -> None
                | Some v ->
                    out.(v) <-
                      { out.(v) with BT.port = (if out.(v).BT.port = TL.bot then 1 else TL.bot) };
                    out_mutant v out );
            ( "erase-lateral",
              fun rng out ->
                match pick rng laterals with
                | None -> None
                | Some v ->
                    let mutated u =
                      if u = v then { (input u) with BT.left_nbr = TL.bot } else input u
                    in
                    Some { Mutate.site = v; input = Some mutated; output = (fun u -> out.(u)) } );
          ]
        ~source ~seed ())

let hierarchical =
  let k = 2 in
  let problem = H.problem ~k in
  snap_entry ~name:problem.Lcl.name ~family:"tree" ~radius:problem.Lcl.radius ~sizes:[ 4; 5 ]
    ~quick_sizes:[ 3 ] ~ir:false ~schema:(h_schema ~k)
    ~build:(fun ~size ~seed -> H.uniform_instance ~k ~len:size ~seed)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = H.graph inst in
      let input = H.input inst in
      let access = H.graph_access inst in
      let level1 = nodes_where graph (fun v -> H.level access ~k v = 1) in
      make_trial ~problem ~graph ~input ~world:(H.world inst) ~solvers:(H.solvers ~k)
        ~mutants:
          [
            ( "exempt-level-1",
              fun rng out ->
                match pick rng level1 with
                | None -> None
                | Some v ->
                    out.(v) <- H.Exempt;
                    out_mutant v out );
            ( "relabel-rotate",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <-
                  (match out.(v) with
                  | H.Chromatic TL.Red -> H.Chromatic TL.Blue
                  | H.Chromatic TL.Blue -> H.Decline
                  | H.Decline -> H.Exempt
                  | H.Exempt -> H.Chromatic TL.Red);
                out_mutant v out );
          ]
        ~source ~seed ())

let rotate_sym = function
  | H.Chromatic TL.Red -> H.Chromatic TL.Blue
  | H.Chromatic TL.Blue -> H.Decline
  | H.Decline -> H.Exempt
  | H.Exempt -> H.Chromatic TL.Red

let hybrid =
  let k = 2 in
  let problem = Hy.problem ~k in
  snap_entry ~name:problem.Lcl.name ~family:"tree" ~radius:problem.Lcl.radius ~sizes:[ 3; 4 ]
    ~quick_sizes:[ 3 ] ~ir:false ~schema:(hy_schema ~k)
    ~build:(fun ~size ~seed -> Hy.uniform_instance ~k ~len:size ~bt_depth:3 ~seed)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = inst.Hy.graph in
      let input = Hy.input inst in
      let high = nodes_where graph (fun v -> (input v).Hy.level >= 2) in
      make_trial ~problem ~graph ~input ~world:(Hy.world inst) ~solvers:(Hy.solvers ~k)
        ~mutants:
          [
            ( "solved-junk",
              fun rng out ->
                match pick rng high with
                | None -> None
                | Some v ->
                    out.(v) <- Hy.Solved { BT.verdict = BT.Bal; port = TL.bot };
                    out_mutant v out );
            ( "relabel-node",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <-
                  (match out.(v) with
                  | Hy.Sym s -> Hy.Sym (rotate_sym s)
                  | Hy.Solved o -> Hy.Solved { o with BT.verdict = BT.Unbal });
                out_mutant v out );
          ]
        ~source ~seed ())

let hh =
  let k = 2 and l = 3 in
  let problem = HH.problem ~k ~l in
  snap_entry ~name:problem.Lcl.name ~family:"tree" ~radius:problem.Lcl.radius ~sizes:[ 60 ]
    ~quick_sizes:[ 40 ] ~ir:false ~schema:(hh_schema ~k ~level:l)
    ~build:(fun ~size ~seed -> HH.uniform_instance ~k ~l ~size_hint:size ~seed)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = inst.HH.graph in
      let input = HH.input inst in
      let hy_high =
        nodes_where graph (fun v ->
            let i = input v in
            i.HH.bit && i.HH.hy.Hy.level >= 2)
      in
      make_trial ~problem ~graph ~input ~world:(HH.world inst) ~solvers:(HH.solvers ~k ~l)
        ~mutants:
          [
            ( "solved-junk-bit1",
              fun rng out ->
                match pick rng hy_high with
                | None -> None
                | Some v ->
                    out.(v) <- Hy.Solved { BT.verdict = BT.Bal; port = TL.bot };
                    out_mutant v out );
            ( "relabel-node",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <-
                  (match out.(v) with
                  | Hy.Sym s -> Hy.Sym (rotate_sym s)
                  | Hy.Solved o -> Hy.Solved { o with BT.verdict = BT.Unbal });
                out_mutant v out );
          ]
        ~source ~seed ())

let gap =
  let problem = Gap.problem in
  snap_entry ~name:problem.Lcl.name ~family:"tree" ~radius:problem.Lcl.radius ~sizes:[ 4; 5 ]
    ~quick_sizes:[ 3 ] ~ir:false ~schema:gap_schema
    ~build:(fun ~size ~seed -> Gap.make ~depth:size ~seed)
    ~trial_of:(fun ~seed ~source inst ->
      let graph = inst.Gap.graph in
      let input = Gap.input inst in
      let partition out =
        let some = ref [] and none = ref [] in
        Array.iteri
          (fun v o -> match o with Some _ -> some := v :: !some | None -> none := v :: !none)
          out;
        (!some, !none)
      in
      make_trial ~problem ~graph ~input ~world:(Gap.world inst) ~solvers:Gap.solvers
        ~cross_model:
          [
            ( "congest",
              fun () ->
                congest_check ~problem ~graph ~input (Gap.run_congest inst ~bandwidth:8) );
          ]
        ~mutants:
          [
            ( "flip-bit",
              fun rng out ->
                match pick rng (fst (partition out)) with
                | None -> None
                | Some v ->
                    out.(v) <- Option.map not out.(v);
                    out_mutant v out );
            ( "spurious-output",
              fun rng out ->
                match pick rng (snd (partition out)) with
                | None -> None
                | Some v ->
                    out.(v) <- Some true;
                    out_mutant v out );
          ]
        ~source ~seed ())

(* --- graph families beyond paths and trees (lib/family) ------------------ *)

(* Every marquee family problem is registered once per applicable family
   under a family-qualified name; the instances are pure graphs, so
   [plain_graph] covers snapshots with no extra columns. *)

let coloring_mutants graph =
  [
    ( "copy-neighbor",
      fun rng out ->
        let v = any_node rng out in
        out.(v) <- out.(Graph.neighbor graph v 1);
        out_mutant v out );
    ( "out-of-palette",
      fun rng out ->
        let v = any_node rng out in
        out.(v) <- F4.palette;
        out_mutant v out );
  ]

let coloring_entry ~name ~family ~sizes ~quick_sizes ~solver ~build =
  let problem = Lcl.with_name F4.problem ~name in
  snap_entry ~name ~family ~radius:problem.Lcl.radius ~sizes ~quick_sizes ~ir:false
    ~schema:plain_graph ~build
    ~trial_of:(fun ~seed ~source graph ->
      make_trial ~problem ~graph ~input:(fun _ -> ()) ~world:(F4.world graph)
        ~solvers:[ solver ] ~mutants:(coloring_mutants graph) ~source ~seed ())

let torus_coloring =
  coloring_entry ~name:"TorusColoring4" ~family:"torus" ~sizes:[ 36; 64 ] ~quick_sizes:[ 16 ]
    ~solver:F4.solve_torus
    ~build:(fun ~size ~seed -> Family.torus_of_size ~size ~seed)

let regular_coloring =
  (* d = 3: the greedy mex stays within the 4-colour palette *)
  coloring_entry ~name:"RegularColoring4" ~family:"d-regular" ~sizes:[ 24; 40 ]
    ~quick_sizes:[ 12 ] ~solver:F4.solve_greedy
    ~build:(fun ~size ~seed -> Family.regular_of_size ~d:3 ~size ~seed)

let matching_mutants graph =
  [
    ( "unmatch",
      fun rng out ->
        (* dropping a matched node leaves its partner pointing at it *)
        (match pick rng (nodes_where graph (fun v -> out.(v) > 0)) with
        | None -> None
        | Some v ->
            out.(v) <- 0;
            out_mutant v out) );
    ( "false-match",
      fun rng out ->
        (* an unmatched node claims port 1; maximality says that
           neighbor is matched elsewhere, so reciprocity breaks *)
        match pick rng (nodes_where graph (fun v -> out.(v) = 0 && Graph.degree graph v > 0)) with
        | None -> None
        | Some v ->
            out.(v) <- 1;
            out_mutant v out );
  ]

let matching_entry ~name ~family ~sizes ~quick_sizes ~build =
  let problem = Lcl.with_name FM.problem ~name in
  snap_entry ~name ~family ~radius:problem.Lcl.radius ~sizes ~quick_sizes ~ir:false
    ~schema:plain_graph ~build
    ~trial_of:(fun ~seed ~source graph ->
      make_trial ~problem ~graph ~input:(fun _ -> ()) ~world:(FM.world graph)
        ~solvers:FM.solvers ~mutants:(matching_mutants graph) ~source ~seed ())

let torus_matching =
  matching_entry ~name:"TorusMatching" ~family:"torus" ~sizes:[ 36; 64 ] ~quick_sizes:[ 16 ]
    ~build:(fun ~size ~seed -> Family.torus_of_size ~size ~seed)

let regular_matching =
  matching_entry ~name:"RegularMatching" ~family:"d-regular" ~sizes:[ 24; 40 ]
    ~quick_sizes:[ 12 ]
    ~build:(fun ~size ~seed -> Family.regular_of_size ~d:4 ~size ~seed)

let mis_mutants =
  [
    ( "drop-member",
      fun rng out ->
        (* a dropped member has no set neighbor (independence), so it is
           left uncovered *)
        (match
           Array.to_seqi out |> Seq.filter (fun (_, b) -> b) |> List.of_seq
           |> List.map fst
           |> pick rng
         with
        | None -> None
        | Some v ->
            out.(v) <- false;
            out_mutant v out) );
    ( "add-member",
      fun rng out ->
        (* maximality guarantees an excluded node has a set neighbor, so
           adding it breaks independence *)
        match
          Array.to_seqi out |> Seq.filter (fun (_, b) -> not b) |> List.of_seq
          |> List.map fst
          |> pick rng
        with
        | None -> None
        | Some v ->
            out.(v) <- true;
            out_mutant v out );
  ]

let mis_entry ~name ~family ~sizes ~quick_sizes ~build =
  let problem = Lcl.with_name FI.problem ~name in
  snap_entry ~name ~family ~radius:problem.Lcl.radius ~sizes ~quick_sizes ~ir:false
    ~schema:plain_graph ~build
    ~trial_of:(fun ~seed ~source graph ->
      make_trial ~problem ~graph ~input:(fun _ -> ()) ~world:(FI.world graph)
        ~solvers:FI.solvers ~mutants:mis_mutants ~source ~seed ())

let regular_mis =
  mis_entry ~name:"RegularMIS" ~family:"d-regular" ~sizes:[ 24; 40 ] ~quick_sizes:[ 12 ]
    ~build:(fun ~size ~seed -> Family.regular_of_size ~d:4 ~size ~seed)

let expander_mis =
  mis_entry ~name:"ExpanderMIS" ~family:"expander" ~sizes:[ 25; 41 ] ~quick_sizes:[ 13 ]
    ~build:(fun ~size ~seed -> Family.expander_of_size ~size ~seed)

let regular_sinkless =
  (* Question 7.3's playground on exactly d-regular instances: the
     second family next to the random-cubic entry above. *)
  let problem = Lcl.with_name SO.problem ~name:"RegularSinkless" in
  snap_entry ~name:"RegularSinkless" ~family:"d-regular" ~radius:problem.Lcl.radius
    ~sizes:[ 20; 32 ] ~quick_sizes:[ 12 ] ~ir:false ~schema:plain_graph
    ~build:(fun ~size ~seed -> Family.regular_of_size ~d:4 ~size ~seed)
    ~trial_of:(fun ~seed ~source graph ->
      let flip = function SO.Outgoing -> SO.Incoming | SO.Incoming -> SO.Outgoing in
      make_trial ~problem ~graph ~input:(fun _ -> ()) ~world:(SO.world graph)
        ~solvers:SO.solvers
        ~mutants:
          [
            ( "swap-port",
              fun rng out ->
                let v = any_node rng out in
                let p = Splitmix.int rng ~bound:(Graph.degree graph v) in
                let a = Array.copy out.(v) in
                a.(p) <- flip a.(p);
                out.(v) <- a;
                out_mutant v out );
            ( "make-sink",
              fun rng out ->
                let v = any_node rng out in
                out.(v) <- Array.make (Graph.degree graph v) SO.Incoming;
                out_mutant v out );
          ]
        ~source ~seed ())

let all () =
  [
    degree_parity;
    cycle_coloring;
    sinkless;
    leaf_coloring;
    promise_leaf;
    balanced_tree;
    hierarchical;
    hybrid;
    hh;
    gap;
    torus_coloring;
    regular_coloring;
    torus_matching;
    regular_matching;
    regular_mis;
    expander_mis;
    regular_sinkless;
  ]
