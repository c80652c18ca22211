(* Tests for the serving layer: the LRU session cache (model-checked
   eviction), the wire protocol (codec + incremental framing), the
   handler's byte-identity with direct computation, the mix parser, and
   an in-process end-to-end run of the select-loop server covering the
   deadline and load-shedding paths. *)

module Json = Vc_obs.Json
module Lru = Vc_serve.Lru
module Protocol = Vc_serve.Protocol
module Handler = Vc_serve.Handler
module Server = Vc_serve.Server
module Wire = Vc_serve.Wire
module Loadgen = Vc_serve.Loadgen
module Conform = Vc_serve.Conform
module Registry = Vc_check.Registry

(* --- LRU -------------------------------------------------------------------- *)

let test_lru_basic () =
  (match Lru.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 accepted");
  let c = Lru.create ~capacity:2 in
  Alcotest.(check int) "empty" 0 (Lru.length c);
  Alcotest.(check bool) "no eviction below capacity" true (Lru.add c 1 "a" = None);
  Alcotest.(check bool) "no eviction at capacity" true (Lru.add c 2 "b" = None);
  Alcotest.(check (option string)) "find bumps" (Some "a") (Lru.find c 1);
  (* 2 is now least recent: adding 3 evicts it *)
  (match Lru.add c 3 "c" with
  | Some (2, "b") -> ()
  | _ -> Alcotest.fail "expected (2, b) evicted");
  Alcotest.(check bool) "evicted key gone" false (Lru.mem c 2);
  Alcotest.(check int) "length stays at capacity" 2 (Lru.length c);
  (* rebinding a resident key never evicts *)
  (match Lru.add c 1 "a2" with
  | None -> ()
  | Some _ -> Alcotest.fail "rebind evicted");
  Alcotest.(check (option string)) "rebind updates" (Some "a2") (Lru.find c 1)

(* Model-based qcheck: drive the cache and a naive MRU-first assoc-list
   model with the same operation sequence; to_list and every eviction
   must agree at each step. *)
type lru_op = Add of int * int | Find of int | Mem of int

let lru_op_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map2 (fun k v -> Add (k, v)) (int_bound 7) (int_bound 99));
        (2, map (fun k -> Find k) (int_bound 7));
        (1, map (fun k -> Mem k) (int_bound 7));
      ])

let pp_lru_op = function
  | Add (k, v) -> Printf.sprintf "add %d %d" k v
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k

let model_find model k =
  match List.assoc_opt k !model with
  | None -> None
  | Some v ->
      model := (k, v) :: List.remove_assoc k !model;
      Some v

let model_add model ~capacity k v =
  if List.mem_assoc k !model then begin
    model := (k, v) :: List.remove_assoc k !model;
    None
  end
  else begin
    model := (k, v) :: !model;
    if List.length !model <= capacity then None
    else begin
      let rec split acc = function
        | [] -> assert false
        | [ last ] -> (List.rev acc, last)
        | x :: rest -> split (x :: acc) rest
      in
      let keep, evicted = split [] !model in
      model := keep;
      Some evicted
    end
  end

let qcheck_lru_model =
  QCheck.Test.make ~count:300 ~name:"Lru: agrees with the MRU-list model"
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map pp_lru_op ops)))
       QCheck.Gen.(pair (int_range 1 4) (list_size (int_bound 40) lru_op_gen)))
    (fun (capacity, ops) ->
      let cache = Lru.create ~capacity in
      let model = ref [] in
      List.for_all
        (fun op ->
          let step_ok =
            match op with
            | Add (k, v) -> Lru.add cache k v = model_add model ~capacity k v
            | Find k -> Lru.find cache k = model_find model k
            | Mem k -> Lru.mem cache k = List.mem_assoc k !model
          in
          step_ok && Lru.to_list cache = !model && Lru.length cache = List.length !model)
        ops)

(* --- protocol codec --------------------------------------------------------- *)

let sample_requests =
  [
    { Protocol.id = 0; deadline_ms = None; query = Protocol.List };
    { Protocol.id = 1; deadline_ms = Some 0; query = Protocol.Stats };
    { Protocol.id = 7; deadline_ms = Some 250; query = Protocol.Shutdown };
    {
      Protocol.id = 12;
      deadline_ms = None;
      query = Protocol.Solve { problem = "LeafColoring"; size = 15; seed = -3L };
    };
    {
      Protocol.id = 13;
      deadline_ms = Some 1000;
      query = Protocol.Probe { problem = "CycleColoring3"; size = 9; seed = Int64.min_int; origin = 4 };
    };
    {
      Protocol.id = 14;
      deadline_ms = None;
      query = Protocol.Trace { problem = "DegreeParity"; size = 16; seed = Int64.max_int; origin = 0 };
    };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let s = Json.to_string (Protocol.request_to_json req) in
      match Result.bind (Json.parse s) Protocol.request_of_json with
      | Ok req' -> Alcotest.(check bool) s true (req' = req)
      | Error msg -> Alcotest.failf "%s: %s" s msg)
    sample_requests

let test_request_rejects () =
  List.iter
    (fun src ->
      match Result.bind (Json.parse src) Protocol.request_of_json with
      | Ok _ -> Alcotest.failf "accepted %s" src
      | Error _ -> ())
    [
      "{}";
      "{\"kind\":\"list\"}";
      "{\"id\":-1,\"kind\":\"list\"}";
      "{\"id\":1,\"kind\":\"nonsense\"}";
      "{\"id\":1,\"kind\":\"list\",\"deadline_ms\":-5}";
      "{\"id\":1,\"kind\":\"list\",\"deadline_ms\":\"soon\"}";
      "{\"id\":1,\"kind\":\"solve\",\"problem\":\"x\",\"size\":4}";
      "{\"id\":1,\"kind\":\"solve\",\"problem\":\"x\",\"size\":4,\"seed\":17}";
      "{\"id\":1,\"kind\":\"probe\",\"problem\":\"x\",\"size\":4,\"seed\":\"17\"}";
    ]

let test_reply_roundtrip () =
  let ok = Protocol.ok_reply ~id:5 (Json.Obj [ ("n", Json.Int 3) ]) in
  (match Result.bind (Json.parse (Json.to_string ok)) Protocol.reply_of_json with
  | Ok { Protocol.r_id = 5; body = Ok payload } ->
      Alcotest.(check (option int)) "payload" (Some 3) (Option.bind (Json.member payload "n") Json.to_int)
  | _ -> Alcotest.fail "ok reply did not round-trip");
  let err = Protocol.error_reply ~id:6 ~code:Protocol.Overloaded ~message:"queue full" in
  match Result.bind (Json.parse (Json.to_string err)) Protocol.reply_of_json with
  | Ok { Protocol.r_id = 6; body = Error (Protocol.Overloaded, "queue full") } -> ()
  | _ -> Alcotest.fail "error reply did not round-trip"

let feed_string dec s = Protocol.feed dec (Bytes.of_string s) (String.length s)

let test_framing_incremental () =
  let bodies = [ "{\"id\":1}"; "{}"; String.make 1000 'x' ] in
  let wire = String.concat "" (List.map Protocol.frame bodies) in
  (* byte-at-a-time feeding must produce exactly the three bodies *)
  let dec = Protocol.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      feed_string dec (String.make 1 c);
      let rec drain () =
        match Protocol.next_frame dec with
        | Ok (Some b) ->
            got := b :: !got;
            drain ()
        | Ok None -> ()
        | Error msg -> Alcotest.failf "framing error: %s" msg
      in
      drain ())
    wire;
  Alcotest.(check (list string)) "byte-at-a-time" bodies (List.rev !got);
  (* all three in one feed *)
  let dec = Protocol.decoder () in
  feed_string dec wire;
  let rec drain acc =
    match Protocol.next_frame dec with
    | Ok (Some b) -> drain (b :: acc)
    | Ok None -> List.rev acc
    | Error msg -> Alcotest.failf "framing error: %s" msg
  in
  Alcotest.(check (list string)) "single feed" bodies (drain [])

let test_framing_rejects () =
  let bad s =
    let dec = Protocol.decoder () in
    feed_string dec s;
    let rec drain () =
      match Protocol.next_frame dec with
      | Ok (Some _) -> drain ()
      | Ok None -> Alcotest.failf "accepted %S" s
      | Error _ -> ()
    in
    drain ()
  in
  bad "x{}\n";
  bad "99999999999 {}\n";
  (* length prefix over the 16 MiB cap *)
  bad (Printf.sprintf "%d %s\n" (Protocol.max_frame_bytes + 1) "{}");
  (* body longer than declared: the byte after it must be the newline *)
  bad "2 {}x\n"

(* --- handler ---------------------------------------------------------------- *)

(* Byte-identity for every registry problem: Conform.probe is the exact
   closure behind the oracle probe `serve` of `volcomp check`. *)
let test_handler_byte_identity () =
  List.iter
    (fun (e : Registry.entry) ->
      match e.quick_sizes with
      | [] -> ()
      | size :: _ -> (
          match Conform.probe e ~size ~seed:91L with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s: %s" e.name msg))
    (Registry.all ())

let test_handler_errors () =
  let h = Handler.create () in
  (match Handler.handle h (Protocol.Solve { problem = "no-such"; size = 4; seed = 1L }) with
  | Error (Protocol.Unknown_problem, _) -> ()
  | _ -> Alcotest.fail "unknown problem not reported");
  match Handler.handle h (Protocol.Probe { problem = "DegreeParity"; size = 16; seed = 1L; origin = 99 })
  with
  | Error (Protocol.Bad_origin, _) -> ()
  | _ -> Alcotest.fail "bad origin not reported"

let test_handler_cache_bounded () =
  let h = Handler.create ~cache_capacity:2 () in
  let solve seed =
    match Handler.handle h (Protocol.Solve { problem = "DegreeParity"; size = 16; seed }) with
    | Ok p -> Json.to_string p
    | Error (_, msg) -> Alcotest.failf "solve: %s" msg
  in
  let first = solve 1L in
  Alcotest.(check int) "one resident" 1 (Handler.cache_length h);
  Alcotest.(check string) "cache hit answers identically" first (solve 1L);
  ignore (solve 2L : string);
  ignore (solve 3L : string);
  Alcotest.(check int) "capacity bounds residents" 2 (Handler.cache_length h);
  Alcotest.(check string) "rebuilt after eviction, same bytes" first (solve 1L)

(* --- loadgen mix parser ------------------------------------------------------ *)

let test_parse_mix () =
  (match Loadgen.parse_mix "probe:4,solve" with
  | Ok [ ("probe", 4); ("solve", 1) ] -> ()
  | Ok _ -> Alcotest.fail "wrong mix"
  | Error msg -> Alcotest.fail msg);
  List.iter
    (fun s ->
      match Loadgen.parse_mix s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ ""; "shutdown"; "probe:0"; "probe:x"; "frobnicate:2" ]

(* --- end-to-end server ------------------------------------------------------- *)

(* Run the select loop on its own domain against a Unix-domain socket,
   drive it from this one, and join on shutdown.  One batch of frames
   written in a single write exercises batching, the bounded queue
   (depth 1 -> overloaded), and the deadline path (deadline_ms = 0
   expires deterministically at dispatch). *)
let with_server ?queue_depth f =
  let dir = Filename.temp_file "volcomp_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  let listen = Server.listen_unix ~path in
  let handler = Handler.create () in
  let server = Domain.spawn (fun () -> Server.run ~handler ?queue_depth ~listen ()) in
  let finally () =
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  in
  Fun.protect ~finally (fun () ->
      let c =
        match Wire.connect (Unix.ADDR_UNIX path) with
        | Ok c -> c
        | Error msg -> Alcotest.fail msg
      in
      Fun.protect
        ~finally:(fun () -> Wire.close c)
        (fun () ->
          f c;
          Domain.join server))

let send_raw c s = Alcotest.(check bool) "frames written" true (Wire.write c s)

let frame_request req = Protocol.frame (Json.to_string (Protocol.request_to_json req))

let read_replies c count =
  List.init count (fun _ ->
      match Result.bind (Result.bind (Wire.read_body c) Json.parse) Protocol.reply_of_json with
      | Ok r -> r
      | Error msg -> Alcotest.failf "bad reply: %s" msg)

let body_of id replies =
  match List.find_opt (fun r -> r.Protocol.r_id = id) replies with
  | Some r -> r.Protocol.body
  | None -> Alcotest.failf "no reply for id %d" id

let test_server_end_to_end () =
  let answered =
    with_server (fun c ->
        let q = Protocol.Probe { problem = "DegreeParity"; size = 16; seed = 5L; origin = 2 } in
        Wire.send c { Protocol.id = 1; deadline_ms = None; query = q };
        let direct =
          match Handler.handle (Handler.create ()) q with
          | Ok p -> Json.to_string p
          | Error (_, msg) -> Alcotest.failf "direct: %s" msg
        in
        (match body_of 1 (read_replies c 1) with
        | Ok payload ->
            Alcotest.(check string) "wire payload is byte-identical" direct (Json.to_string payload)
        | Error (c, m) -> Alcotest.failf "error %s: %s" (Protocol.code_to_string c) m);
        (* a deadline of 0 ms has always expired by dispatch time *)
        Wire.send c { Protocol.id = 2; deadline_ms = Some 0; query = q };
        (match body_of 2 (read_replies c 1) with
        | Error (Protocol.Deadline_exceeded, _) -> ()
        | Error (c, _) -> Alcotest.failf "expected deadline_exceeded, got %s" (Protocol.code_to_string c)
        | Ok _ -> Alcotest.fail "expired request answered");
        (* malformed JSON on a well-formed frame: one bad_request, conn survives *)
        send_raw c (Protocol.frame "{nope");
        (match body_of 0 (read_replies c 1) with
        | Error (Protocol.Bad_request, _) -> ()
        | _ -> Alcotest.fail "malformed JSON not rejected");
        Wire.send c { Protocol.id = 9; deadline_ms = None; query = Protocol.Shutdown };
        match body_of 9 (read_replies c 1) with
        | Ok payload ->
            Alcotest.(check (option bool)) "bye" (Some true)
              (Option.bind (Json.member payload "bye") Json.to_bool)
        | Error _ -> Alcotest.fail "shutdown errored")
  in
  Alcotest.(check int) "answered count" 4 answered

let test_server_sheds_load () =
  let answered =
    with_server ~queue_depth:1 (fun c ->
        let q = Protocol.Stats in
        let burst =
          String.concat ""
            (List.map
               (fun id -> frame_request { Protocol.id; deadline_ms = None; query = q })
               [ 1; 2; 3 ])
        in
        (* one write -> one read cycle on the server: the queue (depth 1)
           takes request 1; 2 and 3 must be shed, not dropped or hung *)
        send_raw c burst;
        let replies = read_replies c 3 in
        (match body_of 1 replies with
        | Ok _ -> ()
        | Error (c, _) -> Alcotest.failf "request 1: %s" (Protocol.code_to_string c));
        List.iter
          (fun id ->
            match body_of id replies with
            | Error (Protocol.Overloaded, _) -> ()
            | Error (c, _) ->
                Alcotest.failf "request %d: expected overloaded, got %s" id
                  (Protocol.code_to_string c)
            | Ok _ -> Alcotest.failf "request %d: not shed" id)
          [ 2; 3 ];
        Wire.send c { Protocol.id = 4; deadline_ms = None; query = Protocol.Shutdown };
        ignore (read_replies c 1 : Protocol.reply list))
  in
  Alcotest.(check int) "answered count" 4 answered

let suites =
  [
    ( "serve:lru",
      [
        Alcotest.test_case "basics" `Quick test_lru_basic;
        QCheck_alcotest.to_alcotest qcheck_lru_model;
      ] );
    ( "serve:protocol",
      [
        Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
        Alcotest.test_case "request rejects" `Quick test_request_rejects;
        Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
        Alcotest.test_case "incremental framing" `Quick test_framing_incremental;
        Alcotest.test_case "framing rejects" `Quick test_framing_rejects;
      ] );
    ( "serve:handler",
      [
        Alcotest.test_case "byte-identity across the registry" `Slow test_handler_byte_identity;
        Alcotest.test_case "structured errors" `Quick test_handler_errors;
        Alcotest.test_case "session cache bounded" `Quick test_handler_cache_bounded;
      ] );
    ( "serve:loadgen",
      [ Alcotest.test_case "mix parser" `Quick test_parse_mix ] );
    ( "serve:server",
      [
        Alcotest.test_case "end-to-end over a socket" `Quick test_server_end_to_end;
        Alcotest.test_case "bounded queue sheds load" `Quick test_server_sheds_load;
      ] );
  ]
