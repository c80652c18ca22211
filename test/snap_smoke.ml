(* @snap-smoke driver: the snapshot store must work end to end through
   the real binaries, not just in-process.  The run builds a store with
   the `volcomp snap` CLI, byte-verifies it with `snap verify`, boots a
   2-worker sharded `volcomp serve --snap-dir` tier against it, and
   demands:

     - the first Warm of the pre-built session answers source "snap"
       (the mmap-load path, not a rebuild);
     - after SIGKILL of the worker holding the session, the respawned
       worker re-warms from the store (its serve.snap.hits counter and
       the supervisor's serve.shard.rewarm_snap counter both move);
     - the session stays resident afterwards (source "cache").

   The emitted JSON (outcome flags plus the tier's final merged stats
   payload) is validated by the strict independent parser in the dune
   alias. *)

module Json = Vc_obs.Json
module Protocol = Vc_serve.Protocol
module Ring = Vc_serve.Ring
module Wire = Vc_serve.Wire

let problem = "DegreeParity"

exception Failed of string

let failf fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

(* --- subprocesses -------------------------------------------------------------- *)

let run_cmd argv =
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> failf "%s exited %d" (String.concat " " (Array.to_list argv)) c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      failf "%s killed by signal %d" (String.concat " " (Array.to_list argv)) s

(* --- tiny client ---------------------------------------------------------------- *)

let parse_reply body =
  match Result.bind (Json.parse body) Protocol.reply_of_json with
  | Ok r -> r
  | Error msg -> failf "unparseable reply %s: %s" body msg

let ok_payload body =
  match (parse_reply body).Protocol.body with
  | Ok payload -> payload
  | Error (c, m) -> failf "request errored %s: %s" (Protocol.code_to_string c) m

let ask ch id query =
  Wire.send ch { Protocol.id; deadline_ms = None; query };
  match Wire.read_body ch with Ok body -> body | Error msg -> failf "%s" msg

(* --- stats plumbing ------------------------------------------------------------- *)

let counter_of payload name =
  Option.value ~default:0
    (Option.bind
       (Option.bind
          (Option.bind (Json.member payload "metrics") (fun m -> Json.member m "counters"))
          (fun c -> Json.member c name))
       Json.to_int)

let shard_row payload shard =
  match Json.member payload "shards" with
  | Some (Json.List rows) -> (
      match
        List.find_opt
          (fun row -> Option.bind (Json.member row "shard") Json.to_int = Some shard)
          rows
      with
      | Some row -> row
      | None -> failf "no stats row for shard %d" shard)
  | _ -> failf "stats payload lacks shards rows"

let row_int row key =
  match Option.bind (Json.member row key) Json.to_int with
  | Some v -> v
  | None -> failf "stats row lacks %s" key

let row_alive row =
  match Option.bind (Json.member row "alive") Json.to_bool with
  | Some b -> b
  | None -> failf "stats row lacks alive"

let worker_stats row =
  match Json.member row "stats" with
  | Some s -> s
  | None -> failf "stats row lacks worker stats"

(* --- the smoke ------------------------------------------------------------------- *)

let with_tmp_dir prefix f =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let finally () =
    (match Sys.readdir dir with
    | names ->
        Array.iter
          (fun n -> try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
          names
    | exception Sys_error _ -> ());
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () -> f dir)

let one_smoke ~exe ~size ~seed =
  with_tmp_dir "vc_snap_store" @@ fun store_dir ->
  with_tmp_dir "vc_snap_sock" @@ fun sock_dir ->
  (* 1. build the store from the CLI, then byte-verify it *)
  run_cmd
    [|
      exe; "snap"; "build"; "--dir"; store_dir; "--only"; problem; "--size";
      string_of_int size; "--seed"; Int64.to_string seed;
    |];
  run_cmd [| exe; "snap"; "verify"; "--dir"; store_dir |];
  (* 2. boot a sharded tier against it *)
  let sock = Filename.concat sock_dir "s.sock" in
  let server_pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--workers"; "2"; "--snap-dir"; store_dir |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let finally () =
    (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
    try ignore (Unix.waitpid [] server_pid : int * Unix.process_status)
    with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally @@ fun () ->
  let ch =
    match Wire.connect (Unix.ADDR_UNIX sock) with Ok ch -> ch | Error msg -> failf "%s" msg
  in
  Fun.protect ~finally:(fun () -> Wire.close ch) @@ fun () ->
  let q_warm = Protocol.Warm { problem; size; seed } in
  (* 3. the pre-built session must come off the store, not a rebuild *)
  let source_of body =
    match Option.bind (Json.member (ok_payload body) "source") Json.to_str with
    | Some s -> s
    | None -> failf "warm reply lacks source"
  in
  let first_source = source_of (ask ch 1 q_warm) in
  if first_source <> "snap" then failf "first warm answered %S, want \"snap\"" first_source;
  (* 4. kill the worker holding the session *)
  let shard = Ring.lookup_session (Ring.create [ 0; 1 ]) ~problem ~size ~seed in
  let stats0 = ok_payload (ask ch 2 Protocol.Stats) in
  let victim = row_int (shard_row stats0 shard) "pid" in
  Unix.kill victim Sys.sigkill;
  (* 5. wait for the respawn and the snapshot re-warm to land *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec settle id =
    let stats = ok_payload (ask ch id Protocol.Stats) in
    let row = shard_row stats shard in
    if
      row_alive row
      && row_int row "respawns" = 1
      && counter_of stats "serve.shard.rewarm_snap" >= 1
      && counter_of (worker_stats row) "serve.snap.hits" >= 1
    then (stats, id)
    else if Unix.gettimeofday () > deadline then
      failf "re-warm never hit the store: respawns %d, rewarm_snap %d, worker snap hits %d"
        (row_int row "respawns")
        (counter_of stats "serve.shard.rewarm_snap")
        (counter_of (worker_stats row) "serve.snap.hits")
    else begin
      ignore (Unix.select [] [] [] 0.05 : _ * _ * _);
      settle (id + 1)
    end
  in
  let final_stats, id = settle 3 in
  if counter_of final_stats "serve.shard.rewarm_build" > 0 then
    failf "re-warm rebuilt %d session(s) despite the store"
      (counter_of final_stats "serve.shard.rewarm_build");
  (* 6. the session is resident again *)
  let post_source = source_of (ask ch (id + 1) q_warm) in
  if post_source <> "cache" then
    failf "post-recovery warm answered %S, want \"cache\"" post_source;
  ignore (ok_payload (ask ch (id + 2) Protocol.Shutdown) : Json.t);
  (match Unix.waitpid [] server_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
      let d =
        match st with
        | Unix.WEXITED c -> Printf.sprintf "exit %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s
      in
      failf "serve daemon did not shut down cleanly (%s)" d);
  (first_source, post_source, final_stats)

(* --- driver ---------------------------------------------------------------------- *)

let usage () =
  prerr_endline "usage: snap_smoke --exe VOLCOMP [--json PATH] [--size N] [--seed N]";
  exit 2

let () =
  let exe = ref None and json_path = ref None and size = ref 16 and seed = ref 42L in
  let rec parse = function
    | [] -> ()
    | "--exe" :: p :: rest ->
        exe := Some p;
        parse rest
    | "--json" :: p :: rest ->
        json_path := Some p;
        parse rest
    | "--size" :: n :: rest ->
        (match int_of_string_opt n with Some v when v > 0 -> size := v | _ -> usage ());
        parse rest
    | "--seed" :: n :: rest ->
        (match Int64.of_string_opt n with Some v -> seed := v | _ -> usage ());
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let exe = match !exe with Some e -> e | None -> usage () in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let outcome =
    match one_smoke ~exe ~size:!size ~seed:!seed with
    | first, post, stats -> Ok (first, post, stats)
    | exception Failed msg -> Error msg
    | exception e -> Error (Printexc.to_string e)
  in
  let ok = Result.is_ok outcome in
  let summary =
    match outcome with
    | Ok (first, post, stats) ->
        Json.Obj
          [
            ("ok", Json.Bool true);
            ("problem", Json.String problem);
            ("size", Json.Int !size);
            ("first_warm_source", Json.String first);
            ("post_recovery_source", Json.String post);
            ("final_stats", stats);
          ]
    | Error msg -> Json.Obj [ ("ok", Json.Bool false); ("error", Json.String msg) ]
  in
  (match !json_path with
  | Some path ->
      let oc = open_out path in
      output_string oc (Json.to_string summary);
      output_char oc '\n';
      close_out oc
  | None -> ());
  (match outcome with
  | Ok (first, post, _) ->
      Printf.printf
        "snap-smoke: store built by CLI, first warm %S, killed worker re-warmed from \
         snapshot, post-recovery warm %S\n"
        first post
  | Error msg -> Printf.eprintf "snap-smoke: FAIL: %s\n" msg);
  exit (if ok then 0 else 1)
