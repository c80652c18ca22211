module Json = Vc_obs.Json
module Trace = Vc_obs.Trace
module Registry = Vc_check.Registry

let ( let* ) = Result.bind

(* Push one request through the same codec path the daemon uses:
   encode, frame, incremental decode, parse, handle, encode the reply,
   parse it back.  Returns the reply body. *)
let round_trip handler req =
  let wire = Protocol.frame (Json.to_string (Protocol.request_to_json req)) in
  let dec = Protocol.decoder () in
  Protocol.feed dec (Bytes.of_string wire) (String.length wire);
  let* body =
    match Protocol.next_frame dec with
    | Ok (Some body) -> Ok body
    | Ok None -> Error "request frame did not decode in one piece"
    | Error msg -> Error ("request framing: " ^ msg)
  in
  let* v = Json.parse body in
  let* parsed = Protocol.request_of_json v in
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

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let read_body fd dec buf =
  let rec go () =
    match Protocol.next_frame dec with
    | Ok (Some body) -> Ok body
    | Error msg -> Error ("reply framing: " ^ msg)
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Error "supervisor closed the connection mid-reply"
        | n ->
            Protocol.feed dec buf n;
            go ())
  in
  go ()

(* The supervisor binds its socket after spawning workers; retry until
   it is accepting (a stale temp file connects with ECONNREFUSED or
   ENOTSOCK until then). *)
let connect_retry path =
  let rec go tries =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ENOTSOCK), _, _) ->
        Unix.close fd;
        if tries <= 0 then Error "supervisor did not start accepting connections"
        else begin
          ignore (Unix.select [] [] [] 0.01);
          go (tries - 1)
        end
  in
  go 1000

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
    (match !conn with Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ()) | None -> ());
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let* fd = connect_retry socket in
      conn := Some fd;
      let dec = Protocol.decoder () in
      let buf = Bytes.create 65536 in
      let ask id query =
        write_all fd
          (Protocol.frame
             (Json.to_string (Protocol.request_to_json { Protocol.id; deadline_ms = None; query })));
        read_body fd dec buf
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
