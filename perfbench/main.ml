(* perfbench: the repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --check

   A run prints one JSON object as its last line: [correct], [attempted],
   [failed], and [metrics] — every end-to-end metric (--trace 0) or every
   per-layer metric (--trace 1), each with its unit.  A per-layer metric
   a workload does not exercise reads 0.  --check runs every workload
   briefly in both modes and asserts the printed metrics match
   BENCHMARK.json, and that a corrupted reply counts as failed. *)

module Json = Vc_obs.Json

(* --- metric tables (BENCHMARK.json lists the same names and units) ----------- *)

let end_to_end =
  [
    ("wall_s", "s");
    ("goodput_per_s", "1/s");
    ("p50_us", "us");
    ("p99_us", "us");
    ("setup_s", "s");
  ]

let per_layer =
  [
    ("protocol.decode_us", "us");
    ("protocol.encode_us", "us");
    ("protocol.reply_bytes", "B");
    ("handler.compute_us", "us");
    ("handler.hit_us", "us");
    ("registry.build_us", "us");
    ("replay.requests", "count");
    ("replay.lru.hits", "count");
    ("replay.lru.misses", "count");
    ("replay.lru.evictions", "count");
    ("lru.hits", "count");
    ("lru.misses", "count");
    ("lru.evictions", "count");
    ("lru.hit_ratio", "ratio");
    ("supervisor.routed", "count");
    ("supervisor.shed", "count");
    ("supervisor.peak_inflight", "count");
    ("server.handle_us", "us");
    ("serve.client_mean_us", "us");
    ("serve.transport_us", "us");
    ("peak_rss_mb", "MiB");
    ("trace.overhead_pct", "%");
  ]
  @ List.map (fun o -> ("experiments." ^ o.Batch_bench.op_name ^ "_s", "s")) Batch_bench.reproduce_ops
  @ List.map (fun c -> (c, "count")) Batch_bench.reproduce_counters
  @ [ ("probe.resolved_hit_ratio", "ratio") ]
  @ List.concat_map
      (fun o ->
        let pre = "synth." ^ o.Batch_bench.op_name in
        (pre ^ "_s", "s")
        :: List.map
             (fun c -> (pre ^ "." ^ c, if c = "sat.conflicts_per_s" then "1/s" else "count"))
             Batch_bench.synth_counts)
      Batch_bench.synth_ops

let workloads = [ "serve-warm"; "serve-churn"; "reproduce"; "synth-ladder" ]

(* --- running one workload ------------------------------------------------------- *)

type env = { exe : string; out_dir : string }

let run_workload ?corrupt env ~name ~seed ~seconds ~trace =
  let exe = env.exe and out_dir = env.out_dir in
  match name with
  | "serve-warm" -> Serve_bench.run Serve_bench.serve_warm ~exe ~out_dir ~seed ~seconds ~trace ~corrupt
  | "serve-churn" -> Serve_bench.run Serve_bench.serve_churn ~exe ~out_dir ~seed ~seconds ~trace ~corrupt
  | "reproduce" -> Batch_bench.reproduce ~exe ~out_dir ~seconds ~trace
  | "synth-ladder" -> Batch_bench.synth ~exe ~out_dir ~seconds ~trace
  | _ -> invalid_arg ("unknown workload " ^ name)

(* The metrics a run prints, in table order, with units. *)
let printed (o : Serve_bench.outcome) ~trace =
  let table = if trace then per_layer else end_to_end in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name o.Serve_bench.metrics with
      | Some v -> (name, v, unit)
      | None -> if trace then (name, 0., unit) else failwith ("workload did not measure " ^ name))
    table

let unknown (o : Serve_bench.outcome) ~trace =
  let table = if trace then per_layer else end_to_end in
  List.filter (fun (n, _) -> not (List.mem_assoc n table)) o.Serve_bench.metrics

let result_line (o : Serve_bench.outcome) rows =
  let num v =
    if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v
  in
  let metrics =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (Json.escape name) (num v) (Json.escape unit))
      rows
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (o.Serve_bench.failed = 0) o.Serve_bench.attempted o.Serve_bench.failed (String.concat ", " metrics)

(* --- check mode -------------------------------------------------------------- *)

let read_benchmark_json () =
  let ic = open_in_bin "BENCHMARK.json" in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  match Json.parse s with Ok j -> j | Error msg -> failwith ("BENCHMARK.json: " ^ msg)

let listed j key field =
  match Json.member j key with
  | Some (Json.List items) ->
      List.map
        (fun it ->
          let get f = Option.value (Option.bind (Json.member it f) Json.to_str) ~default:"" in
          (get "name", get field))
        items
  | _ -> failwith ("BENCHMARK.json: no " ^ key)

let check env =
  let problems = ref [] in
  let expect cond fmt = Printf.ksprintf (fun s -> if not cond then problems := s :: !problems) fmt in
  let j = read_benchmark_json () in
  let sorted l = List.sort compare l in
  expect (sorted (List.map fst (listed j "workloads" "why")) = sorted workloads) "workloads differ from BENCHMARK.json";
  expect (sorted (listed j "end_to_end" "unit") = sorted end_to_end) "end_to_end metrics or units differ from BENCHMARK.json";
  expect (sorted (listed j "per_layer" "unit") = sorted per_layer) "per_layer metrics or units differ from BENCHMARK.json";
  List.iter
    (fun name ->
      List.iter
        (fun trace ->
          let o = run_workload env ~name ~seed:1L ~seconds:1. ~trace in
          let rows = printed o ~trace in
          let line = result_line o rows in
          let mode = if trace then "traced" else "untraced" in
          (match Json.parse line with
          | Ok v ->
              let m = Option.value (Json.member v "metrics") ~default:Json.Null in
              List.iter
                (fun (n, u) ->
                  expect
                    (Option.bind (Json.member m n) (fun x -> Option.bind (Json.member x "unit") Json.to_str) = Some u)
                    "%s %s: %s not printed with unit %s" name mode n u)
                (if trace then per_layer else end_to_end)
          | Error msg -> expect false "%s %s: result line is not JSON: %s" name mode msg);
          List.iter (fun (n, _) -> expect false "%s %s: %s is not in the metric table" name mode n) (unknown o ~trace);
          List.iter (fun (n, v, _) -> expect (Float.is_finite v) "%s %s: %s is not finite" name mode n) rows;
          expect (o.Serve_bench.failed = 0) "%s %s: %d of %d failed" name mode o.Serve_bench.failed
            o.Serve_bench.attempted;
          Printf.printf "check: %s %s ok (%d attempted)\n%!" name mode o.Serve_bench.attempted)
        [ false; true ])
    workloads;
  let o = run_workload env ~corrupt:5 ~name:"serve-warm" ~seed:1L ~seconds:1. ~trace:false in
  expect (o.Serve_bench.failed >= 1 && o.Serve_bench.attempted > 5) "a corrupted reply was not counted as failed";
  (match Batch_bench.check_reproduce_order () with Ok () -> () | Error msg -> expect false "%s" msg);
  match List.rev !problems with
  | [] ->
      print_endline "perfbench check: ok";
      0
  | ps ->
      List.iter (fun p -> prerr_endline ("perfbench check: " ^ p)) ps;
      1

(* --- command line ------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 and check_mode = ref false in
  let out_dir = ref (Filename.concat ".bench_build" "perfbench-out") in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) metrics");
      ("--out-dir", Arg.Set_string out_dir, "DIR  tier socket, logs and span files");
      ("--check", Arg.Set check_mode, " run every workload briefly and check the printed metrics");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --check" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let exe =
    Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) (Filename.concat "bin" "main.exe")
  in
  if not (Sys.file_exists exe) then begin
    prerr_endline ("perfbench: volcomp binary not found at " ^ exe);
    exit 2
  end;
  Util.mkdir_p !out_dir;
  let env = { exe; out_dir = !out_dir } in
  let code =
    try
      if !check_mode then check env
      else if not (List.mem !workload workloads) then begin
        prerr_endline ("perfbench: --workload must be one of " ^ String.concat ", " workloads);
        2
      end
      else if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
        prerr_endline "perfbench: --seconds must be >= 1 and --trace 0 or 1";
        2
      end
      else begin
        let trace = !trace = 1 in
        let o =
          run_workload env ~name:!workload ~seed:(Int64.of_int !seed) ~seconds:(float_of_int !seconds) ~trace
        in
        let rows = printed o ~trace in
        (match unknown o ~trace with
        | [] -> ()
        | (n, _) :: _ -> failwith ("metric missing from the table: " ^ n));
        List.iter (fun (n, v, _) -> if not (Float.is_finite v) then failwith (n ^ " is not finite")) rows;
        List.iter (fun (n, v, u) -> Printf.printf "%-44s %16.6g %s\n" n v u) rows;
        print_endline (result_line o rows);
        0
      end
    with
    | Tier.Tier_error msg | Failure msg ->
        prerr_endline ("perfbench: " ^ msg);
        1
    | Unix.Unix_error (e, fn, arg) ->
        Printf.eprintf "perfbench: %s(%s): %s\n" fn arg (Unix.error_message e);
        1
  in
  Tier.kill_leftovers ();
  exit code
