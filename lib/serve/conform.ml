module Json = Vc_obs.Json
module Trace = Vc_obs.Trace
module Registry = Vc_check.Registry

let ( let* ) = Result.bind

(* Push one request through the same codec path the daemon uses:
   encode, frame, the daemon's ingress ({!Wire.next_request}), handle,
   encode the reply, parse it back.  Returns the reply body. *)
let round_trip handler req =
  let wire = Protocol.frame (Json.to_string (Protocol.request_to_json req)) in
  let dec = Protocol.decoder () in
  Protocol.feed dec (Bytes.of_string wire) (String.length wire);
  let* parsed =
    match Wire.next_request dec with
    | Some (Ok req) -> Ok req
    | Some (Error { Wire.message; _ }) -> Error ("request rejected: " ^ message)
    | None -> Error "request frame did not decode in one piece"
  in
  if parsed <> req then Error "request changed across encode/decode"
  else
    let reply_json =
      match Handler.handle handler parsed.Protocol.query with
      | Ok payload -> Protocol.ok_reply ~id:parsed.Protocol.id payload
      | Error (code, message) -> Protocol.error_reply ~id:parsed.Protocol.id ~code ~message
    in
    let reply_wire = Protocol.frame (Json.to_string reply_json) in
    let rdec = Protocol.decoder () in
    Protocol.feed rdec (Bytes.of_string reply_wire) (String.length reply_wire);
    let* rbody =
      match Protocol.next_frame rdec with
      | Ok (Some b) -> Ok b
      | Ok None -> Error "reply frame did not decode in one piece"
      | Error msg -> Error ("reply framing: " ^ msg)
    in
    let* rv = Json.parse rbody in
    let* reply = Protocol.reply_of_json rv in
    if reply.Protocol.r_id <> req.Protocol.id then
      Error
        (Printf.sprintf "reply id %d for request id %d" reply.Protocol.r_id req.Protocol.id)
    else Ok reply.Protocol.body

let expect_payload handler ~what query ~direct =
  let req = { Protocol.id = 1; deadline_ms = None; query } in
  let* body = round_trip handler req in
  match body with
  | Error (code, msg) ->
      Error (Printf.sprintf "%s: error %s (%s)" what (Protocol.code_to_string code) msg)
  | Ok payload ->
      let served = Json.to_string payload in
      let wanted = Json.to_string direct in
      if served <> wanted then
        Error
          (Printf.sprintf "%s: served payload differs from direct computation\n  served: %s\n  direct: %s"
             what served wanted)
      else Ok ()

let expect_error handler ~what query ~code =
  let req = { Protocol.id = 2; deadline_ms = None; query } in
  let* body = round_trip handler req in
  match body with
  | Error (c, _) when c = code -> Ok ()
  | Error (c, _) ->
      Error
        (Printf.sprintf "%s: expected error %s, got %s" what (Protocol.code_to_string code)
           (Protocol.code_to_string c))
  | Ok _ ->
      Error (Printf.sprintf "%s: expected error %s, got a payload" what
           (Protocol.code_to_string code))

let probe (e : Registry.entry) ~size ~seed =
  let handler = Handler.create ~entries:[ e ] () in
  let direct = e.Registry.make ~size ~seed () in
  let n = direct.Registry.t_n in
  let problem = e.Registry.name in
  let* () =
    expect_payload handler ~what:"solve"
      (Protocol.Solve { problem; size; seed })
      ~direct:(Protocol.solve_payload ~problem ~n (direct.Registry.run_solvers ()))
  in
  let origins = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
  let* () =
    List.fold_left
      (fun acc origin ->
        let* () = acc in
        let* summary =
          Result.map_error (fun m -> "direct probe: " ^ m)
            (direct.Registry.probe_origin ~origin ())
        in
        let* () =
          expect_payload handler
            ~what:(Printf.sprintf "probe origin %d" origin)
            (Protocol.Probe { problem; size; seed; origin })
            ~direct:(Protocol.probe_payload ~problem ~origin summary)
        in
        let ring = Trace.ring () in
        let* tsummary =
          Result.map_error (fun m -> "direct trace: " ^ m)
            (direct.Registry.probe_origin ~trace:ring ~origin ())
        in
        expect_payload handler
          ~what:(Printf.sprintf "trace origin %d" origin)
          (Protocol.Trace { problem; size; seed; origin })
          ~direct:(Protocol.trace_payload ~problem ~origin tsummary (Trace.events ring)))
      (Ok ()) origins
  in
  let* () =
    expect_payload handler ~what:"warm"
      (Protocol.Warm { problem; size; seed })
      ~direct:(Protocol.warm_payload ~problem ~size ~n ~source:"cache")
  in
  let* () =
    expect_error handler ~what:"unknown problem"
      (Protocol.Solve { problem = "no-such-problem"; size; seed })
      ~code:Protocol.Unknown_problem
  in
  expect_error handler ~what:"out-of-range origin"
    (Protocol.Probe { problem; size; seed; origin = n })
    ~code:Protocol.Bad_origin

(* --- the sharded oracle probe ------------------------------------------------- *)

let shard_probe ~exe ~workers (e : Registry.entry) ~size ~seed =
  let twin = Handler.create () in
  let problem = e.Registry.name in
  let* n = Result.map_error snd (Handler.instance_n twin ~problem ~size ~seed) in
  let origins = List.sort_uniq compare [ 0; n / 2; n - 1 ] in
  let corpus =
    [ Protocol.Solve { problem; size; seed }; Protocol.Warm { problem; size; seed } ]
    @ List.map (fun origin -> Protocol.Probe { problem; size; seed; origin }) origins
    @ List.map (fun origin -> Protocol.Trace { problem; size; seed; origin }) origins
    @ [
        Protocol.List;
        Protocol.Solve { problem = "no-such-problem"; size; seed };
        Protocol.Probe { problem; size; seed; origin = n };
      ]
  in
  let socket = Filename.temp_file "volcomp-shard" ".sock" in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--workers"; string_of_int workers; "--socket"; socket |]
      devnull devnull Unix.stderr
  in
  Unix.close devnull;
  let conn = ref None in
  let finally () =
    Option.iter Wire.close !conn;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let* ch = Wire.connect (Unix.ADDR_UNIX socket) in
      conn := Some ch;
      let ask id query =
        Wire.send ch { Protocol.id; deadline_ms = None; query };
        Wire.read_body ch
      in
      (* every reply must be, byte for byte, what a single-process
         server over the full registry would have sent *)
      let* () =
        List.fold_left
          (fun acc (i, q) ->
            let* () = acc in
            let id = i + 1 in
            let expected =
              Json.to_string
                (match Handler.handle twin q with
                | Ok payload -> Protocol.ok_reply ~id payload
                | Error (code, message) -> Protocol.error_reply ~id ~code ~message)
            in
            let* got = ask id q in
            if got <> expected then
              Error
                (Printf.sprintf
                   "sharded reply %d (%s) differs from single-process bytes\n  sharded: %s\n  direct:  %s"
                   id (Protocol.kind q) got expected)
            else Ok ())
          (Ok ())
          (List.mapi (fun i q -> (i, q)) corpus)
      in
      (* the merged stats must report every worker alive *)
      let stats_id = List.length corpus + 1 in
      let* sbody = ask stats_id Protocol.Stats in
      let* sv = Json.parse sbody in
      let* reply = Protocol.reply_of_json sv in
      let* () =
        match reply.Protocol.body with
        | Error (code, msg) ->
            Error (Printf.sprintf "stats: error %s (%s)" (Protocol.code_to_string code) msg)
        | Ok payload -> (
            match Json.member payload "shards" with
            | Some (Json.List rows) when List.length rows = workers ->
                if
                  List.for_all
                    (fun row -> Json.member row "alive" = Some (Json.Bool true))
                    rows
                then Ok ()
                else Error "stats: a worker is reported dead"
            | _ -> Error (Printf.sprintf "stats: expected %d shard rows" workers))
      in
      let* _bye = ask (stats_id + 1) Protocol.Shutdown in
      Ok ())

let probes ~exe ~workers : Vc_check.Oracle.probe list =
  [
    {
      name = "serve";
      first_trial_only = false;
      run = (fun c -> Some (probe c.entry ~size:c.size ~seed:c.seed));
    };
    (* spawns a whole supervisor and its workers per call *)
    {
      name = "shard";
      first_trial_only = true;
      run = (fun c -> Some (shard_probe ~exe ~workers c.entry ~size:c.size ~seed:c.seed));
    };
  ]
