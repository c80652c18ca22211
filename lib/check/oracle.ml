module Splitmix = Vc_rng.Splitmix
module Runner = Vc_measure.Runner
module Pool = Vc_exec.Pool

(* Per-trial seeds mix the entry name in, so no two problems (and no two
   trials of one problem) ever share an instance seed. *)
let trial_seed ~seed ~name i =
  Splitmix.mix (Int64.add seed (Int64.of_int ((Hashtbl.hash name * 1000003) + i)))

type ctx = {
  entry : Registry.entry;
  size : int;
  seed : int64;
  trial : Registry.trial;
  pool : Pool.t option;
}

type probe = {
  name : string;
  first_trial_only : bool;
  run : ctx -> (unit, string) result option;
}

let ( let* ) = Result.bind

(* A trial whose instance came back from the snapshot store must
   reproduce the freshly built trial's solver outcomes, per-origin probe
   summaries and recorded trace transcript exactly. *)
let snap_identity c =
  let e = c.entry and a = c.trial in
  let dir = Filename.temp_file "vc-snap" "" in
  Sys.remove dir;
  let store = Registry.store ~dir in
  let cleanup () =
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) (Registry.Store.files store);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let check cond fmt = Fmt.kstr (fun msg -> if cond then Ok () else Error msg) fmt in
  (* populate the store (publish-on-miss), then hit it *)
  let warm_n = e.acquire ~store ~size:c.size ~seed:c.seed () in
  let b = e.make ~store ~size:c.size ~seed:c.seed () in
  let* () =
    check (warm_n = a.Registry.t_n) "acquire saw %d nodes, build saw %d" warm_n a.Registry.t_n
  in
  let* () =
    check (b.Registry.t_source = `Snapshot) "store hit did not mark the trial as snapshot-loaded"
  in
  let* () =
    check (b.Registry.t_n = a.Registry.t_n) "node counts differ: built %d, snapshot %d"
      a.Registry.t_n b.Registry.t_n
  in
  let* () =
    check
      (a.Registry.run_solvers ?pool:c.pool () = b.Registry.run_solvers ?pool:c.pool ())
      "solver outcomes differ between built and snapshot-loaded"
  in
  let origins =
    List.sort_uniq compare [ 0; a.Registry.t_n / 2; a.Registry.t_n - 1 ]
    |> List.filter (fun o -> o >= 0 && o < a.Registry.t_n)
  in
  let* () =
    List.fold_left
      (fun acc origin ->
        let* () = acc in
        check
          (a.Registry.probe_origin ~origin () = b.Registry.probe_origin ~origin ())
          "probe summaries differ at origin %d" origin)
      (Ok ()) origins
  in
  let trace_of (t : Registry.trial) suffix =
    let path = Filename.temp_file "vc-snap-trace" suffix in
    Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
    match t.Registry.trace_record ~path ~header:Vc_obs.Json.Null ~origin:0 with
    | Ok () -> In_channel.with_open_bin path In_channel.input_all
    | Error msg -> Fmt.str "trace-error: %s" msg
  in
  check (trace_of a ".a" = trace_of b ".b") "trace transcripts differ from origin 0"

let builtin =
  [
    (* the reference solver's Runner stats must not depend on the pool
       width *)
    {
      name = "merge";
      first_trial_only = true;
      run = (fun c -> Some (c.trial.Registry.merge_consistency ~widths:[ 1; 2; 4 ]));
    };
    (* alternative-model executions (CONGEST protocols) *)
    {
      name = "cross";
      first_trial_only = false;
      run =
        (fun c ->
          match c.trial.Registry.cross_model with
          | [] -> None
          | models ->
              Some
                (List.fold_left
                   (fun acc (model, f) ->
                     let* () = acc in
                     Result.map_error (Fmt.str "%s: %s" model) (f ()))
                   (Ok ()) models));
    };
    (* lazy vs. eager world identity *)
    {
      name = "lazy";
      first_trial_only = false;
      run = (fun c -> Some (c.trial.Registry.lazy_vs_eager ()));
    };
    (* IR port vs. reference closure, on entries that carry an IR port *)
    {
      name = "ir";
      first_trial_only = false;
      run = (fun c -> Option.map (fun f -> f ()) c.trial.Registry.ir_vs_closure);
    };
    (* record -> JSON round-trip -> replay *)
    {
      name = "replay";
      first_trial_only = false;
      run = (fun c -> Some (c.trial.Registry.trace_roundtrip ()));
    };
    { name = "snap"; first_trial_only = false; run = (fun c -> Some (snap_identity c)) };
  ]

let names probes = "solvers" :: "mutate" :: List.map (fun p -> p.name) probes

(* Every failure of [p] on [c] is reported in the same two shapes; the
   verdict folds [None] (does not apply) away. *)
let run_probe ~fail ctxs p =
  let ctxs = if p.first_trial_only then List.filteri (fun i _ -> i = 0) ctxs else ctxs in
  List.fold_left
    (fun verdict c ->
      let passed =
        match p.run c with
        | None -> None
        | Some (Ok ()) -> Some true
        | Some (Error msg) ->
            fail (Fmt.str "%s at size %d: %s" p.name c.size msg);
            Some false
        | exception exn ->
            fail (Fmt.str "%s at size %d raised %s" p.name c.size (Printexc.to_string exn));
            Some false
      in
      match (verdict, passed) with
      | Some a, Some b -> Some (a && b)
      | v, None | None, v -> v)
    None ctxs

let run_entry ?pool ~probes ~want ~seed ~count ~quick (e : Registry.entry) =
  let failures = ref [] in
  let push s = failures := s :: !failures in
  let fail fmt = Fmt.kstr push fmt in
  let guarded what f default =
    try f () with
    | exn ->
        fail "%s raised %s" what (Printexc.to_string exn);
        default
  in
  let sizes = if quick then e.quick_sizes else e.sizes in
  let ctxs =
    List.mapi
      (fun i size ->
        let seed = trial_seed ~seed ~name:e.name i in
        { entry = e; size; seed; trial = e.make ~size ~seed (); pool })
      sizes
  in
  (* data phase "solvers": differential solving + cost envelope *)
  let all_outcomes =
    List.map
      (fun c ->
        ( c,
          if not (want "solvers") then []
          else
            guarded
              (Fmt.str "solvers at size %d" c.size)
              (fun () -> c.trial.Registry.run_solvers ?pool ())
              [] ))
      ctxs
  in
  List.iter
    (fun (c, outcomes) ->
      let size = c.size and n = c.trial.Registry.t_n in
      List.iter
        (fun (o : Registry.solver_outcome) ->
          let st = o.stats in
          if not o.valid then fail "%s: invalid output at size %d" o.solver size;
          if st.Runner.runs <> n then
            fail "%s: ran %d of %d nodes at size %d" o.solver st.Runner.runs n size;
          if st.Runner.aborted > 0 then
            fail "%s: %d aborted runs at size %d" o.solver st.Runner.aborted size;
          if st.Runner.max_volume < st.Runner.max_distance then
            fail "%s: max VOL %d < max DIST %d at size %d (violates Lemma 2.5)" o.solver
              st.Runner.max_volume st.Runner.max_distance size;
          if st.Runner.max_volume < 1 then
            fail "%s: max volume %d < 1 at size %d" o.solver st.Runner.max_volume size;
          if (not o.randomized) && st.Runner.max_rand_bits > 0 then
            fail "%s: deterministic solver consumed %d random bits at size %d" o.solver
              st.Runner.max_rand_bits size)
        outcomes)
    all_outcomes;
  let solver_aggs =
    match all_outcomes with
    | [] -> []
    | (_, first) :: _ ->
        List.map
          (fun (o0 : Registry.solver_outcome) ->
            List.fold_left
              (fun agg (_, os) ->
                match
                  List.find_opt (fun (o : Registry.solver_outcome) -> o.solver = o0.solver) os
                with
                | None -> agg
                | Some o ->
                    {
                      agg with
                      Report.s_trials = agg.Report.s_trials + 1;
                      s_valid = (agg.Report.s_valid + if o.valid then 1 else 0);
                      s_max_volume = max agg.Report.s_max_volume o.stats.Runner.max_volume;
                      s_max_distance = max agg.Report.s_max_distance o.stats.Runner.max_distance;
                      s_max_rand_bits = max agg.Report.s_max_rand_bits o.stats.Runner.max_rand_bits;
                    })
              {
                Report.s_name = o0.solver;
                s_randomized = o0.randomized;
                s_trials = 0;
                s_valid = 0;
                s_max_volume = 0;
                s_max_distance = 0;
                s_max_rand_bits = 0;
              }
              all_outcomes)
          first
  in
  let verdicts =
    List.map
      (fun p -> (p.name, if want p.name then run_probe ~fail:push ctxs p else None))
      probes
  in
  (* data phase "mutate": [count] fuzzing rounds round-robin over trials *)
  let kind_order = ref [] in
  let kinds : (string, Report.kind_agg) Hashtbl.t = Hashtbl.create 8 in
  let record (o : Mutate.outcome) =
    let agg =
      match Hashtbl.find_opt kinds o.kind with
      | Some a -> a
      | None ->
          kind_order := o.kind :: !kind_order;
          { Report.k_kind = o.kind; k_total = 0; k_rejected = 0; k_out_of_radius = 0 }
    in
    Hashtbl.replace kinds o.kind
      {
        agg with
        Report.k_total = agg.Report.k_total + 1;
        k_rejected = (agg.Report.k_rejected + if o.rejected then 1 else 0);
        k_out_of_radius =
          (agg.Report.k_out_of_radius + if o.rejected && not o.in_radius then 1 else 0);
      }
  in
  let ntrials = List.length ctxs in
  if ntrials > 0 && want "mutate" then
    for i = 0 to count - 1 do
      let t = (List.nth ctxs (i mod ntrials)).trial in
      let rng =
        Splitmix.create
          (Splitmix.mix (Int64.add (trial_seed ~seed ~name:e.name (-1)) (Int64.of_int i)))
      in
      List.iter
        (fun (o : Mutate.outcome) ->
          if o.Mutate.kind = "reference" then fail "reference output: %s" o.detail
          else begin
            record o;
            if o.rejected && not o.in_radius then
              fail "mutation %s at node %d: violation outside radius %d (%s)" o.kind o.site
                e.radius o.detail
          end)
        (guarded (Fmt.str "fuzz round %d" i) (fun () -> t.Registry.mutate rng) [])
    done;
  {
    Report.p_name = e.name;
    p_radius = e.radius;
    p_instances = ntrials;
    p_solvers = solver_aggs;
    p_verdicts = verdicts;
    p_mutations = List.rev_map (Hashtbl.find kinds) !kind_order;
    p_probes_skipped = List.filter (fun p -> not (want p)) (names probes);
    p_failures = List.rev !failures;
  }


let run ?pool ?entries ?(probes = builtin) ?only ~seed ~count ~quick () =
  let known = names probes in
  let reject fmt =
    Fmt.kstr (fun s -> invalid_arg (Fmt.str "%s (known: %s)" s (String.concat ", " known))) fmt
  in
  let want =
    match Option.map (List.map String.lowercase_ascii) only with
    | None -> fun _ -> true
    | Some [] -> reject "empty probe selection"
    | Some ps -> (
        match List.find_opt (fun p -> not (List.mem p known)) ps with
        | Some p -> reject "unknown probe %S" p
        | None -> fun p -> List.mem p ps)
  in
  let entries = match entries with Some es -> es | None -> Registry.all () in
  let domains = match pool with None -> 1 | Some p -> Pool.domains p in
  let problems = List.map (run_entry ?pool ~probes ~want ~seed ~count ~quick) entries in
  { Report.seed; count; domains; quick; problems }

(* --- standalone trace files ------------------------------------------------ *)

module Json = Vc_obs.Json
module Trace = Vc_obs.Trace

let find_entry ?entries name =
  let entries = match entries with Some es -> es | None -> Registry.all () in
  match
    List.find_opt (fun (e : Registry.entry) -> String.lowercase_ascii e.name = String.lowercase_ascii name) entries
  with
  | Some e -> Ok e
  | None ->
      Error
        (Fmt.str "unknown problem %S (known: %s)" name
           (String.concat ", " (List.map (fun (e : Registry.entry) -> e.name) entries)))

(* The header pins down everything a later process needs to rebuild the
   instance: the trial seed is the already-mixed per-trial seed, stored
   as a string because [Splitmix.mix] spans the full int64 range. *)
let header ~problem ~size ~trial_seed ~origin =
  Json.Obj
    [
      ("volcomp_trace", Json.Int 1);
      ("problem", Json.String problem);
      ("size", Json.Int size);
      ("trial_seed", Json.String (Int64.to_string trial_seed));
      ("origin", Json.Int origin);
    ]

let record_trace ?entries ~seed ~quick ~problem ~origin ~path () =
  match find_entry ?entries problem with
  | Error _ as e -> e
  | Ok e -> (
      let sizes = if quick then e.quick_sizes else e.sizes in
      match sizes with
      | [] -> Error (Fmt.str "%s has no %s sizes" e.name (if quick then "quick" else "full"))
      | size :: _ ->
          let ts = trial_seed ~seed ~name:e.name 0 in
          let t = e.make ~size ~seed:ts () in
          let header = header ~problem:e.name ~size ~trial_seed:ts ~origin in
          t.Registry.trace_record ~path ~header ~origin)

let replay_trace ?entries ~path () =
  match Trace.load ~path with
  | Error _ as e -> e
  | Ok (header, events) -> (
      let str key = Option.bind (Json.member header key) Json.to_str in
      let int key = Option.bind (Json.member header key) Json.to_int in
      match (str "problem", int "size", Option.bind (str "trial_seed") Int64.of_string_opt, int "origin") with
      | Some problem, Some size, Some ts, Some origin -> (
          match find_entry ?entries problem with
          | Error _ as e -> e
          | Ok e ->
              let t = e.make ~size ~seed:ts () in
              t.Registry.trace_replay ~events ~origin)
      | _ -> Error (Fmt.str "%s: header is missing problem/size/trial_seed/origin" path))
