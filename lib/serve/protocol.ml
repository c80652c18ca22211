module Json = Vc_obs.Json
module Trace = Vc_obs.Trace
module Registry = Vc_check.Registry
module Runner = Vc_measure.Runner

type query =
  | Solve of { problem : string; size : int; seed : int64 }
  | Probe of { problem : string; size : int; seed : int64; origin : int }
  | Trace of { problem : string; size : int; seed : int64; origin : int }
  | Warm of { problem : string; size : int; seed : int64 }
  | List
  | Stats
  | Shutdown

type request = { id : int; deadline_ms : int option; query : query }

let kind = function
  | Solve _ -> "solve"
  | Probe _ -> "probe"
  | Trace _ -> "trace"
  | Warm _ -> "warm"
  | List -> "list"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

type error_code =
  | Bad_request
  | Unknown_problem
  | Bad_origin
  | Deadline_exceeded
  | Overloaded
  | Worker_lost
  | Server_error

let code_to_string = function
  | Bad_request -> "bad_request"
  | Unknown_problem -> "unknown_problem"
  | Bad_origin -> "bad_origin"
  | Deadline_exceeded -> "deadline_exceeded"
  | Overloaded -> "overloaded"
  | Worker_lost -> "worker_lost"
  | Server_error -> "server_error"

let code_of_string = function
  | "bad_request" -> Some Bad_request
  | "unknown_problem" -> Some Unknown_problem
  | "bad_origin" -> Some Bad_origin
  | "deadline_exceeded" -> Some Deadline_exceeded
  | "overloaded" -> Some Overloaded
  | "worker_lost" -> Some Worker_lost
  | "server_error" -> Some Server_error
  | _ -> None

(* --- request codec ---------------------------------------------------------- *)

let request_to_json { id; deadline_ms; query } =
  let base = [ ("id", Json.Int id); ("kind", Json.String (kind query)) ] in
  let instance ~problem ~size ~seed rest =
    [
      ("problem", Json.String problem);
      ("size", Json.Int size);
      ("seed", Json.String (Int64.to_string seed));
    ]
    @ rest
  in
  let fields =
    match query with
    | Solve { problem; size; seed } | Warm { problem; size; seed } ->
        instance ~problem ~size ~seed []
    | Probe { problem; size; seed; origin } | Trace { problem; size; seed; origin } ->
        instance ~problem ~size ~seed [ ("origin", Json.Int origin) ]
    | List | Stats | Shutdown -> []
  in
  let deadline =
    match deadline_ms with None -> [] | Some d -> [ ("deadline_ms", Json.Int d) ]
  in
  Json.Obj (base @ fields @ deadline)

let request_of_json v =
  let int key = Option.bind (Json.member v key) Json.to_int in
  let str key = Option.bind (Json.member v key) Json.to_str in
  let require what = function Some x -> Ok x | None -> Error ("missing or ill-typed " ^ what) in
  let ( let* ) = Result.bind in
  let* id = require "\"id\"" (int "id") in
  if id < 0 then Error "\"id\" must be non-negative"
  else
    let* k = require "\"kind\"" (str "kind") in
    let deadline_ms = int "deadline_ms" in
    let* () =
      match (Json.member v "deadline_ms", deadline_ms) with
      | Some _, None -> Error "ill-typed \"deadline_ms\""
      | Some _, Some d when d < 0 -> Error "\"deadline_ms\" must be non-negative"
      | _ -> Ok ()
    in
    let instance () =
      let* problem = require "\"problem\"" (str "problem") in
      let* size = require "\"size\"" (int "size") in
      let* seed_s = require "\"seed\"" (str "seed") in
      match Int64.of_string_opt seed_s with
      | None -> Error "\"seed\" is not a decimal int64"
      | Some seed -> Ok (problem, size, seed)
    in
    let* query =
      match k with
      | "solve" ->
          let* problem, size, seed = instance () in
          Ok (Solve { problem; size; seed })
      | "warm" ->
          let* problem, size, seed = instance () in
          Ok (Warm { problem; size; seed })
      | "probe" | "trace" ->
          let* problem, size, seed = instance () in
          let* origin = require "\"origin\"" (int "origin") in
          Ok
            (if k = "probe" then Probe { problem; size; seed; origin }
             else Trace { problem; size; seed; origin })
      | "list" -> Ok List
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | k -> Error (Printf.sprintf "unknown request kind %S" k)
    in
    Ok { id; deadline_ms; query }

(* --- reply codec ------------------------------------------------------------ *)

let ok_reply ~id payload = Json.Obj [ ("id", Json.Int id); ("ok", payload) ]

let error_reply ~id ~code ~message =
  Json.Obj
    [
      ("id", Json.Int id);
      ( "error",
        Json.Obj
          [ ("code", Json.String (code_to_string code)); ("message", Json.String message) ] );
    ]

type reply = { r_id : int; body : (Json.t, error_code * string) result }

let reply_of_json v =
  match Option.bind (Json.member v "id") Json.to_int with
  | None -> Error "reply is missing \"id\""
  | Some r_id -> (
      match (Json.member v "ok", Json.member v "error") with
      | Some payload, None -> Ok { r_id; body = Ok payload }
      | None, Some err -> (
          let code = Option.bind (Option.bind (Json.member err "code") Json.to_str) code_of_string in
          let message = Option.bind (Json.member err "message") Json.to_str in
          match (code, message) with
          | Some c, Some m -> Ok { r_id; body = Error (c, m) }
          | _ -> Error "reply \"error\" is missing code/message")
      | _ -> Error "reply must have exactly one of \"ok\"/\"error\"")

(* --- framing ---------------------------------------------------------------- *)

let max_frame_bytes = 16 * 1024 * 1024

let frame body = Printf.sprintf "%d %s\n" (String.length body) body

(* The pending input lives in one Buffer; [consumed] bytes of its front
   have already been handed out.  Frames are scanned and sliced in place
   from [consumed], so draining k frames from one read costs their bytes,
   not k copies of the buffer.  The buffer is compacted only when a drain
   stops: cleared once fully consumed, or left holding just the partial
   frame at its front. *)
type decoder = { pending : Buffer.t; mutable consumed : int }

let decoder () = { pending = Buffer.create 512; consumed = 0 }

let feed d buf len = Buffer.add_subbytes d.pending buf 0 len

let next_frame d =
  let p = d.pending in
  let stop = Buffer.length p in
  let base = d.consumed in
  let need_more () =
    if base > 0 then begin
      let rest = Buffer.sub p base (stop - base) in
      Buffer.clear p;
      Buffer.add_string p rest;
      d.consumed <- 0
    end;
    Ok None
  in
  (* parse "<digits> " *)
  let rec scan i =
    if i - base > 10 then Error "frame length prefix too long"
    else if i >= stop then Ok None
    else
      match Buffer.nth p i with
      | '0' .. '9' -> scan (i + 1)
      | ' ' when i > base -> Ok (Some i)
      | c -> Error (Printf.sprintf "invalid frame prefix character %C" c)
  in
  match scan base with
  | Error _ as e -> e
  | Ok None -> need_more ()
  | Ok (Some sp) -> (
      match int_of_string_opt (Buffer.sub p base (sp - base)) with
      | None -> Error "invalid frame length"
      | Some len when len > max_frame_bytes ->
          Error (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len max_frame_bytes)
      | Some len ->
          let body_start = sp + 1 in
          if stop < body_start + len + 1 then need_more ()
          else if Buffer.nth p (body_start + len) <> '\n' then
            Error "frame body not newline-terminated"
          else begin
            let body = Buffer.sub p body_start len in
            d.consumed <- body_start + len + 1;
            if d.consumed = stop then begin
              Buffer.clear p;
              d.consumed <- 0
            end;
            Ok (Some body)
          end)

(* --- result payloads -------------------------------------------------------- *)

let stats_json (st : Runner.stats) =
  Json.Obj
    [
      ("runs", Json.Int st.Runner.runs);
      ("max_volume", Json.Int st.Runner.max_volume);
      ("sum_volume", Json.Int st.Runner.sum_volume);
      ("max_distance", Json.Int st.Runner.max_distance);
      ("sum_distance", Json.Int st.Runner.sum_distance);
      ("max_queries", Json.Int st.Runner.max_queries);
      ("max_rand_bits", Json.Int st.Runner.max_rand_bits);
      ("aborted", Json.Int st.Runner.aborted);
    ]

let solve_payload ~problem ~n outcomes =
  Json.Obj
    [
      ("problem", Json.String problem);
      ("n", Json.Int n);
      ( "solvers",
        Json.List
          (List.map
             (fun (o : Registry.solver_outcome) ->
               Json.Obj
                 [
                   ("name", Json.String o.Registry.solver);
                   ("randomized", Json.Bool o.Registry.randomized);
                   ("valid", Json.Bool o.Registry.valid);
                   ("stats", stats_json o.Registry.stats);
                 ])
             outcomes) );
    ]

let summary_fields (p : Registry.probe_summary) =
  [
    ("solver", Json.String p.Registry.pr_solver);
    ("volume", Json.Int p.Registry.pr_volume);
    ("distance", Json.Int p.Registry.pr_distance);
    ("queries", Json.Int p.Registry.pr_queries);
    ("rand_bits", Json.Int p.Registry.pr_rand_bits);
    ("aborted", Json.Bool p.Registry.pr_aborted);
    ("output_digest", Json.Int p.Registry.pr_output);
  ]

let probe_payload ~problem ~origin summary =
  Json.Obj
    (("problem", Json.String problem) :: ("origin", Json.Int origin) :: summary_fields summary)

let trace_payload ~problem ~origin summary events =
  Json.Obj
    (("problem", Json.String problem)
    :: ("origin", Json.Int origin)
    :: summary_fields summary
    @ [ ("events", Json.List (List.map Trace.event_to_json events)) ])

let warm_payload ~problem ~size ~n ~source =
  Json.Obj
    [
      ("problem", Json.String problem);
      ("size", Json.Int size);
      ("n", Json.Int n);
      ("source", Json.String source);
    ]

let list_payload entries =
  Json.Obj
    [
      ( "problems",
        Json.List
          (List.map
             (fun (e : Registry.entry) ->
               Json.Obj
                 [
                   ("name", Json.String e.Registry.name);
                   ("family", Json.String e.Registry.family);
                   ( "radius",
                     if e.Registry.radius = max_int then Json.String "unbounded"
                     else Json.Int e.Registry.radius );
                   ("sizes", Json.List (List.map (fun s -> Json.Int s) e.Registry.sizes));
                   ( "quick_sizes",
                     Json.List (List.map (fun s -> Json.Int s) e.Registry.quick_sizes) );
                   ("ir", Json.Bool e.Registry.ir);
                 ])
             entries) );
    ]
