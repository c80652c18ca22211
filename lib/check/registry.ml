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

(* How one problem's instance flattens into named snapshot segments and
   back.  [dec] is total: any missing or mis-sized segment is [None],
   which callers treat as a store miss and fall back to building. *)
type 'inst snapper = {
  enc : 'inst -> (string * Iarr.t) list;
  dec : Snap.loaded -> 'inst option;
  n_of : 'inst -> int;
}

let graph_segments g =
  [
    ("g.meta", Iarr.of_array [| Graph.max_degree g |]);
    ("g.ids", Graph.csr_ids g);
    ("g.off", Graph.csr_offsets g);
    ("g.tgt", Graph.csr_targets g);
  ]

(* The graph's rows are adopted as zero-copy views of the mapped file:
   the snapshot checksum stands in for [Graph.create]'s validation. *)
let graph_of_snapshot l =
  match
    ( Snap.seg_find l "g.meta",
      Snap.seg_find l "g.ids",
      Snap.seg_find l "g.off",
      Snap.seg_find l "g.tgt" )
  with
  | Some meta, Some ids, Some off, Some tgt
    when Iarr.length meta = 1
         && Iarr.length ids = l.Snap.hdr.Snap.n
         && Iarr.length off = Iarr.length ids + 1 ->
      Some (Graph.unsafe_of_csr ~ids ~off ~tgt ~max_degree:(Iarr.get meta 0))
  | _ -> None

let graph_snapper = { enc = graph_segments; dec = graph_of_snapshot; n_of = Graph.n }

let seg_n l name =
  match Snap.seg_find l name with
  | Some a when Iarr.length a = l.Snap.hdr.Snap.n -> Some a
  | Some _ | None -> None

let int_of_color = function TL.Red -> 0 | TL.Blue -> 1
let color_of_int i = if i = 0 then TL.Red else TL.Blue
let int_of_bool b = if b then 1 else 0

let lc_snapper =
  let enc (inst : LC.instance) =
    let n = Graph.n inst.LC.graph in
    graph_segments inst.LC.graph
    @ [
        ("tl.parent", inst.LC.labels.TL.parent);
        ("tl.left", inst.LC.labels.TL.left);
        ("tl.right", inst.LC.labels.TL.right);
        ("lc.color", Iarr.init n (fun v -> int_of_color inst.LC.colors.(v)));
      ]
  in
  let dec l =
    match
      ( graph_of_snapshot l,
        seg_n l "tl.parent",
        seg_n l "tl.left",
        seg_n l "tl.right",
        seg_n l "lc.color" )
    with
    | Some graph, Some parent, Some left, Some right, Some color ->
        Some
          {
            LC.graph;
            labels = { TL.parent; left; right };
            colors = Array.init (Graph.n graph) (fun v -> color_of_int (Iarr.get color v));
          }
    | _ -> None
  in
  { enc; dec; n_of = (fun (i : LC.instance) -> Graph.n i.LC.graph) }

let h_snapper ~k =
  {
    enc = (fun (inst : H.instance) -> lc_snapper.enc inst.H.base);
    dec = (fun l -> Option.map (fun base -> { H.base; k }) (lc_snapper.dec l));
    n_of = (fun (i : H.instance) -> Graph.n i.H.base.LC.graph);
  }

let bt_snapper =
  let enc (inst : BT.instance) =
    let n = Graph.n inst.BT.graph in
    let f sel = Iarr.init n (fun v -> sel inst.BT.labels.(v)) in
    graph_segments inst.BT.graph
    @ [
        ("bt.parent", f (fun i -> i.BT.parent));
        ("bt.left", f (fun i -> i.BT.left));
        ("bt.right", f (fun i -> i.BT.right));
        ("bt.left_nbr", f (fun i -> i.BT.left_nbr));
        ("bt.right_nbr", f (fun i -> i.BT.right_nbr));
      ]
  in
  let dec l =
    match
      ( graph_of_snapshot l,
        seg_n l "bt.parent",
        seg_n l "bt.left",
        seg_n l "bt.right",
        seg_n l "bt.left_nbr",
        seg_n l "bt.right_nbr" )
    with
    | Some graph, Some p, Some lt, Some rt, Some ln, Some rn ->
        Some
          {
            BT.graph;
            labels =
              Array.init (Graph.n graph) (fun v ->
                  {
                    BT.parent = Iarr.get p v;
                    left = Iarr.get lt v;
                    right = Iarr.get rt v;
                    left_nbr = Iarr.get ln v;
                    right_nbr = Iarr.get rn v;
                  });
          }
    | _ -> None
  in
  { enc; dec; n_of = (fun (i : BT.instance) -> Graph.n i.BT.graph) }

let hy_segments n label =
  let f sel = Iarr.init n (fun v -> sel (label v)) in
  [
    ("hy.parent", f (fun (i : Hy.node_input) -> i.Hy.parent));
    ("hy.left", f (fun i -> i.Hy.left));
    ("hy.right", f (fun i -> i.Hy.right));
    ("hy.left_nbr", f (fun i -> i.Hy.left_nbr));
    ("hy.right_nbr", f (fun i -> i.Hy.right_nbr));
    ("hy.color", f (fun i -> int_of_color i.Hy.color));
    ("hy.level", f (fun i -> i.Hy.level));
  ]

let hy_labels_of l =
  match
    ( seg_n l "hy.parent",
      seg_n l "hy.left",
      seg_n l "hy.right",
      seg_n l "hy.left_nbr",
      seg_n l "hy.right_nbr",
      seg_n l "hy.color",
      seg_n l "hy.level" )
  with
  | Some p, Some lt, Some rt, Some ln, Some rn, Some c, Some lv ->
      Some
        (Array.init l.Snap.hdr.Snap.n (fun v ->
             {
               Hy.parent = Iarr.get p v;
               left = Iarr.get lt v;
               right = Iarr.get rt v;
               left_nbr = Iarr.get ln v;
               right_nbr = Iarr.get rn v;
               color = color_of_int (Iarr.get c v);
               level = Iarr.get lv v;
             }))
  | _ -> None

let hy_snapper ~k =
  {
    enc =
      (fun (inst : Hy.instance) ->
        graph_segments inst.Hy.graph
        @ hy_segments (Graph.n inst.Hy.graph) (fun v -> inst.Hy.labels.(v)));
    dec =
      (fun l ->
        match (graph_of_snapshot l, hy_labels_of l) with
        | Some graph, Some labels -> Some { Hy.graph; labels; k }
        | _ -> None);
    n_of = (fun (i : Hy.instance) -> Graph.n i.Hy.graph);
  }

let hh_snapper ~k ~level =
  {
    enc =
      (fun (inst : HH.instance) ->
        let n = Graph.n inst.HH.graph in
        graph_segments inst.HH.graph
        @ hy_segments n (fun v -> inst.HH.labels.(v).HH.hy)
        @ [ ("hh.bit", Iarr.init n (fun v -> int_of_bool inst.HH.labels.(v).HH.bit)) ]);
    dec =
      (fun ld ->
        match (graph_of_snapshot ld, hy_labels_of ld, seg_n ld "hh.bit") with
        | Some graph, Some hy, Some bit ->
            Some
              {
                HH.graph;
                labels =
                  Array.init (Graph.n graph) (fun v ->
                      { HH.hy = hy.(v); bit = Iarr.get bit v <> 0 });
                k;
                l = level;
              }
        | _ -> None);
    n_of = (fun (i : HH.instance) -> Graph.n i.HH.graph);
  }

let gap_snapper =
  let enc (inst : Gap.instance) =
    let n = Graph.n inst.Gap.graph in
    let f sel = Iarr.init n (fun v -> sel inst.Gap.inputs.(v)) in
    graph_segments inst.Gap.graph
    @ [
        ("gap.side", f (fun (i : Gap.node_input) -> match i.Gap.side with Gap.U -> 0 | Gap.V -> 1));
        ("gap.index", f (fun i -> i.Gap.index));
        ("gap.depth", f (fun i -> i.Gap.depth));
        ( "gap.bit",
          f (fun i -> match i.Gap.bit with None -> 0 | Some false -> 1 | Some true -> 2) );
        ("gap.bits", Iarr.init (Array.length inst.Gap.bits) (fun i -> int_of_bool inst.Gap.bits.(i)));
      ]
  in
  let dec ld =
    match
      ( graph_of_snapshot ld,
        seg_n ld "gap.side",
        seg_n ld "gap.index",
        seg_n ld "gap.depth",
        seg_n ld "gap.bit",
        Snap.seg_find ld "gap.bits" )
    with
    | Some graph, Some side, Some index, Some depth, Some bit, Some bits ->
        Some
          {
            Gap.graph;
            inputs =
              Array.init (Graph.n graph) (fun v ->
                  {
                    Gap.side = (if Iarr.get side v = 0 then Gap.U else Gap.V);
                    index = Iarr.get index v;
                    depth = Iarr.get depth v;
                    bit =
                      (match Iarr.get bit v with
                      | 0 -> None
                      | 1 -> Some false
                      | _ -> Some true);
                  });
            bits = Array.init (Iarr.length bits) (fun i -> Iarr.get bits i <> 0);
          }
    | _ -> None
  in
  { enc; dec; n_of = (fun (i : Gap.instance) -> Graph.n i.Gap.graph) }

(* Store consultation shared by every entry: a hit decodes zero-copy
   views of the mapped file; a miss builds and (best-effort) publishes,
   so a configured store self-populates — the property the shard tier's
   post-kill re-warm relies on. *)
let acquire_with ?store:st ~problem ~snapper ~build ~size ~seed () =
  match st with
  | None -> (build (), `Built)
  | Some st -> (
      match Store.load st ~problem ~size ~seed with
      | Some l -> (
          match snapper.dec l with Some inst -> (inst, `Snapshot) | None -> (build (), `Built))
      | None ->
          let inst = build () in
          ignore
            (Store.publish st ~problem ~size ~seed ~n:(snapper.n_of inst)
               ~segments:(snapper.enc inst)
              : bool);
          (inst, `Built))

let snap_entry ~name ~family ~radius ~sizes ~quick_sizes ~ir ~snapper ~build ~trial_of =
  let acquire_inst ?store ~size ~seed () =
    acquire_with ?store ~problem:name ~snapper ~build:(fun () -> build ~size ~seed) ~size ~seed
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
      (fun ?store ~size ~seed () -> snapper.n_of (fst (acquire_inst ?store ~size ~seed ())));
  }

(* --- entries, in paper order --------------------------------------------- *)

let degree_parity =
  let problem = TR.problem in
  snap_entry ~name:problem.Lcl.name ~family:"cubic" ~radius:problem.Lcl.radius
    ~sizes:[ 24; 40 ] ~quick_sizes:[ 16 ] ~ir:true ~snapper:graph_snapper
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
    ~sizes:[ 16; 33 ] ~quick_sizes:[ 9 ] ~ir:true ~snapper:graph_snapper
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
    ~sizes:[ 20; 32 ] ~quick_sizes:[ 12 ] ~ir:false ~snapper:graph_snapper
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
    ~sizes:[ 31; 63 ] ~quick_sizes:[ 15 ] ~ir:true ~snapper:lc_snapper
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
    ~sizes:[ 31; 63 ] ~quick_sizes:[ 15 ] ~ir:true ~snapper:lc_snapper
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
    ~quick_sizes:[ 3 ] ~ir:false ~snapper:bt_snapper
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
    ~quick_sizes:[ 3 ] ~ir:false ~snapper:(h_snapper ~k)
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
    ~quick_sizes:[ 3 ] ~ir:false ~snapper:(hy_snapper ~k)
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
    ~quick_sizes:[ 40 ] ~ir:false ~snapper:(hh_snapper ~k ~level:l)
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
    ~quick_sizes:[ 3 ] ~ir:false ~snapper:gap_snapper
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
   [graph_snapper] covers snapshots with no extra segments. *)

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
    ~snapper:graph_snapper ~build
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
    ~snapper:graph_snapper ~build
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
    ~snapper:graph_snapper ~build
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
    ~sizes:[ 20; 32 ] ~quick_sizes:[ 12 ] ~ir:false ~snapper:graph_snapper
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
