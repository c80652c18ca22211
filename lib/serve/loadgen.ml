module Json = Vc_obs.Json
module Splitmix = Vc_rng.Splitmix
module Registry = Vc_check.Registry

type config = {
  conns : int option;
  requests : int;
  mix : (string * int) list;
  seed : int64;
  rate : float option;
  deadline_ms : int option;
  verify : bool;
  shutdown : bool;
  prewarm : bool;
}

let kinds = [ "solve"; "probe"; "trace"; "warm"; "list"; "stats" ]
let default_mix = [ ("solve", 1); ("probe", 4); ("trace", 1); ("list", 1); ("stats", 1) ]

let parse_mix s =
  let parse_item item =
    match String.split_on_char ':' (String.trim item) with
    | [ k ] when List.mem k kinds -> Ok (k, 1)
    | [ k; w ] when List.mem k kinds -> (
        match int_of_string_opt w with
        | Some w when w > 0 -> Ok (k, w)
        | _ -> Error (Printf.sprintf "bad weight %S for kind %s" w k))
    | k :: _ -> Error (Printf.sprintf "unknown request kind %S" k)
    | [] -> Error "empty mix item"
  in
  let items = List.filter (fun s -> String.trim s <> "") (String.split_on_char ',' s) in
  if items = [] then Error "empty mix"
  else
    List.fold_left
      (fun acc item ->
        match (acc, parse_item item) with
        | Ok items, Ok it -> Ok (items @ [ it ])
        | (Error _ as e), _ | _, (Error _ as e) -> e)
      (Ok []) items

type percentiles = {
  l_count : int;
  l_p50_us : int option;
  l_p95_us : int option;
  l_p99_us : int option;
  l_max_us : int;
}

type summary = {
  s_rate : float option;
  s_achieved : float;
  s_conns : int;
  s_requests : int;
  s_ok : int;
  s_errors : (string * int) list;
  s_mismatches : int;
  s_wall_s : float;
  s_latency : (string * percentiles) list;
  s_queue_depth : (int * int) list;
  s_prewarm : (int * int) option;
  s_server_stats : Json.t option;
}

let error_count s code =
  Option.value (List.assoc_opt (Protocol.code_to_string code) s.s_errors) ~default:0

(* --- deterministic request plan ---------------------------------------------- *)

(* Two derived instance seeds: more than one so the session cache sees
   distinct keys (hits *and* evictions under a small capacity), few
   enough that instances stay warm across the run. *)
let instance_seed seed variant = Splitmix.mix (Int64.add seed (Int64.of_int (variant + 1)))

let smallest sizes = List.fold_left min (List.hd sizes) sizes

let gen_plan twin entries ~mix ~seed ~requests =
  let rng = Splitmix.create seed in
  let total_weight = List.fold_left (fun a (_, w) -> a + w) 0 mix in
  let pick_kind () =
    let r = Splitmix.int rng ~bound:total_weight in
    let rec go acc = function
      | [] -> assert false
      | (k, w) :: rest -> if r < acc + w then k else go (acc + w) rest
    in
    go 0 mix
  in
  let n_entries = List.length entries in
  let pick_instance () =
    let e = List.nth entries (Splitmix.int rng ~bound:n_entries) in
    let size = smallest e.Registry.quick_sizes in
    let seed = instance_seed seed (Splitmix.int rng ~bound:2) in
    (e.Registry.name, size, seed)
  in
  List.init requests (fun _ ->
      match pick_kind () with
      | "solve" ->
          let problem, size, seed = pick_instance () in
          Protocol.Solve { problem; size; seed }
      | "warm" ->
          let problem, size, seed = pick_instance () in
          Protocol.Warm { problem; size; seed }
      | ("probe" | "trace") as k ->
          let problem, size, seed = pick_instance () in
          let n =
            match Handler.instance_n twin ~problem ~size ~seed with
            | Ok n -> n
            | Error (_, msg) -> failwith ("loadgen plan: " ^ msg)
          in
          let origin = Splitmix.int rng ~bound:n in
          if k = "probe" then Protocol.Probe { problem; size; seed; origin }
          else Protocol.Trace { problem; size; seed; origin }
      | "list" -> Protocol.List
      | "stats" -> Protocol.Stats
      | _ -> assert false)

(* --- wire helpers ------------------------------------------------------------- *)

exception Fail of string

let ok_or_fail = function Ok v -> v | Error msg -> raise (Fail msg)
let connect addr = ok_or_fail (Wire.connect addr)

let parse_reply body =
  match Result.bind (Json.parse body) Protocol.reply_of_json with
  | Ok r -> r
  | Error msg -> raise (Fail ("bad reply: " ^ msg))

(* One blocking round trip of a control request (no deadline). *)
let call ch id query =
  Wire.send ch { Protocol.id; deadline_ms = None; query };
  parse_reply (ok_or_fail (Wire.read_body ch))

(* --- tallies ------------------------------------------------------------------- *)

type tally = {
  mutable t_ok : int;
  mutable t_mismatches : int;
  t_errors : (string, int) Hashtbl.t;
  t_latencies : (string, int list ref) Hashtbl.t;
}

let tally_create () =
  { t_ok = 0; t_mismatches = 0; t_errors = Hashtbl.create 8; t_latencies = Hashtbl.create 8 }

let note_latency t kind us =
  let cell =
    match Hashtbl.find_opt t.t_latencies kind with
    | Some c -> c
    | None ->
        let c = ref [] in
        Hashtbl.replace t.t_latencies kind c;
        c
  in
  cell := us :: !cell

let note_error t code =
  let key = Protocol.code_to_string code in
  Hashtbl.replace t.t_errors key (1 + Option.value (Hashtbl.find_opt t.t_errors key) ~default:0)

(* A warm reply's [source] reports which path made the session resident
   (fresh build, snapshot load, or already-cached) — server-local
   scheduling state that a sequential twin cannot mirror once concurrent
   clients race to warm the same key, so it is excluded from the byte
   comparison.  The deterministic single-client smokes assert on it
   directly. *)
let strip_source = function
  | Json.Obj ms -> Json.Obj (List.filter (fun (k, _) -> k <> "source") ms)
  | j -> j

let verify_payload twin t q payload =
  match Protocol.kind q with
  | "stats" ->
      if Json.member payload "cache" = None || Json.member payload "metrics" = None then
        t.t_mismatches <- t.t_mismatches + 1
  | kind -> (
      match Handler.handle twin q with
      | Ok expected ->
          let got, want =
            if kind = "warm" then (strip_source payload, strip_source expected)
            else (payload, expected)
          in
          if Json.to_string got <> Json.to_string want then
            t.t_mismatches <- t.t_mismatches + 1
      | Error _ -> t.t_mismatches <- t.t_mismatches + 1)

let sorted_assoc tbl f =
  Hashtbl.fold (fun k v acc -> (k, f v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Nearest-rank percentiles; with fewer than 3 samples the upper ranks
   all collapse onto the same observation, so we report no percentiles
   at all rather than fabricate them (max is still meaningful). *)
let percentiles_of samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank q =
    if n < 3 then None
    else Some a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n /. 100.)) - 1)))
  in
  {
    l_count = n;
    l_p50_us = rank 50.;
    l_p95_us = rank 95.;
    l_p99_us = rank 99.;
    l_max_us = a.(n - 1);
  }

(* --- the loop ------------------------------------------------------------------ *)

type conn = {
  ch : Wire.t;
  out : Buffer.t;
  mutable off : int;  (** bytes of [out] already written *)
  pending : (int, Protocol.query * float) Hashtbl.t;  (** id → query, arrival time *)
}

(* How many shards does the server report?  One connection per shard
   keeps a sharded tier's per-worker channels independently busy; a
   single-process server reports no shards and gets one connection. *)
let discover_shards addr =
  let ch = connect addr in
  let r = call ch 1 Protocol.Stats in
  Wire.close ch;
  match r.Protocol.body with
  | Ok payload -> (
      match Json.member payload "shards" with
      | Some (Json.List rows) -> max 1 (List.length rows)
      | _ -> 1)
  | Error _ -> 1

let shard_inflight stats =
  match Option.bind stats (fun p -> Json.member p "shards") with
  | Some (Json.List rows) ->
      List.filter_map
        (fun row ->
          match
            ( Option.bind (Json.member row "shard") Json.to_int,
              Option.bind (Json.member row "inflight") Json.to_int )
          with
          | Some s, Some i -> Some (s, i)
          | _ -> None)
        rows
  | _ -> []

(* Warm every session the plan will touch over a blocking side
   connection, so the measured phase never charges instance construction
   to the first unlucky request of a session.  Replies say where the
   instance came from; anything other than "cache" was a cold start the
   measured phase just dodged.  Returns (sessions, cold starts). *)
let prewarm addr plan =
  let seen = Hashtbl.create 16 in
  let keys =
    Array.to_list plan
    |> List.filter_map (function
         | Protocol.Solve { problem; size; seed }
         | Protocol.Warm { problem; size; seed }
         | Protocol.Probe { problem; size; seed; _ }
         | Protocol.Trace { problem; size; seed; _ } ->
             if Hashtbl.mem seen (problem, size, seed) then None
             else begin
               Hashtbl.replace seen (problem, size, seed) ();
               Some (problem, size, seed)
             end
         | Protocol.List | Protocol.Stats | Protocol.Shutdown -> None)
  in
  let ch = connect addr in
  let cold = ref 0 in
  List.iteri
    (fun i (problem, size, seed) ->
      match (call ch (i + 1) (Protocol.Warm { problem; size; seed })).Protocol.body with
      | Ok payload -> (
          match Option.bind (Json.member payload "source") Json.to_str with
          | Some "cache" | None -> ()
          | Some _ -> incr cold)
      | Error _ -> ())
    keys;
  Wire.close ch;
  (List.length keys, !cold)

let run ~addr cfg =
  if cfg.requests < 0 then invalid_arg "Loadgen.run: requests must be >= 0";
  if cfg.mix = [] || List.exists (fun (_, w) -> w <= 0) cfg.mix then
    invalid_arg "Loadgen.run: mix must be non-empty with positive weights";
  (match cfg.conns with
  | Some c when c < 1 -> invalid_arg "Loadgen.run: conns must be >= 1"
  | _ -> ());
  (match cfg.rate with
  | Some r when not (r > 0.) -> invalid_arg "Loadgen.run: rate must be > 0"
  | _ -> ());
  let twin = Handler.create () in
  let entries = Registry.all () in
  match
    let plan =
      gen_plan twin entries ~mix:cfg.mix ~seed:cfg.seed ~requests:cfg.requests |> Array.of_list
    in
    let n_conns = match cfg.conns with Some c -> c | None -> discover_shards addr in
    let conns =
      Array.init n_conns (fun _ ->
          let ch = connect addr in
          Unix.set_nonblock ch.Wire.fd;
          { ch; out = Buffer.create 4096; off = 0; pending = Hashtbl.create 16 })
    in
    let prewarmed = if cfg.prewarm then Some (prewarm addr plan) else None in
    let tally = tally_create () in
    let total = Array.length plan in
    let sent = ref 0 in
    let enqueue c arrival =
      let id = !sent + 1 in
      let q = plan.(!sent) in
      Buffer.add_string c.out
        (Protocol.frame
           (Json.to_string
              (Protocol.request_to_json { Protocol.id; deadline_ms = cfg.deadline_ms; query = q })));
      Hashtbl.replace c.pending id (q, arrival);
      incr sent
    in
    let t_start = Unix.gettimeofday () in
    (* The arrival policy: [admit now] enqueues every request that has
       arrived by [now] and returns how long the loop may wait for the
       next arrival.  Latency always runs from the arrival. *)
    let admit =
      match cfg.rate with
      | None ->
          (* closed loop: a request arrives as soon as a connection has
             nothing in flight, so latency runs from the send *)
          fun now ->
            Array.iter
              (fun c -> if !sent < total && Hashtbl.length c.pending = 0 then enqueue c now)
              conns;
            0.05
      | Some rate ->
          (* a Poisson process at [rate]: exponential gaps derived from
             the seed (offset so the arrival stream is independent of
             the plan's), fanned out round-robin.  Latency from the
             scheduled arrival charges client-side backlog to the tail
             (no coordinated omission). *)
          let rng = Splitmix.create (Splitmix.mix (Int64.add cfg.seed 7L)) in
          let gap () = -.log (1. -. Splitmix.float rng) /. rate in
          let next = ref (t_start +. gap ()) in
          fun now ->
            while !sent < total && !next <= now do
              enqueue conns.(!sent mod n_conns) !next;
              next := !next +. gap ()
            done;
            if !sent < total then Float.max 0. (Float.min 0.05 (!next -. now)) else 0.05
    in
    let t_last = ref t_start in
    let settle c (r : Protocol.reply) =
      match Hashtbl.find_opt c.pending r.Protocol.r_id with
      | None -> raise (Fail (Printf.sprintf "unexpected reply id %d" r.Protocol.r_id))
      | Some (q, arrival) ->
          Hashtbl.remove c.pending r.Protocol.r_id;
          let now = Unix.gettimeofday () in
          t_last := now;
          note_latency tally (Protocol.kind q)
            (int_of_float (Float.max 0. ((now -. arrival) *. 1e6)));
          (match r.Protocol.body with
          | Ok payload ->
              tally.t_ok <- tally.t_ok + 1;
              if cfg.verify then verify_payload twin tally q payload
          | Error (code, _) -> note_error tally code)
    in
    let rec drain c =
      match Protocol.next_frame c.ch.Wire.dec with
      | Ok None -> ()
      | Error msg -> raise (Fail ("reply framing: " ^ msg))
      | Ok (Some body) ->
          settle c (parse_reply body);
          drain c
    in
    (* one non-blocking write; what does not fit waits for the next pass *)
    let flush c =
      let s = Buffer.contents c.out in
      let len = String.length s in
      if len > c.off then begin
        (try c.off <- c.off + Unix.write_substring c.ch.Wire.fd s c.off (len - c.off)
         with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
        if c.off >= len then begin
          Buffer.clear c.out;
          c.off <- 0
        end
      end
    in
    let inflight () = Array.fold_left (fun a c -> a + Hashtbl.length c.pending) 0 conns in
    while !sent < total || inflight () > 0 do
      let timeout = admit (Unix.gettimeofday ()) in
      Array.iter flush conns;
      let rd = Array.to_list (Array.map (fun c -> c.ch.Wire.fd) conns) in
      let wr =
        Array.to_list conns
        |> List.filter_map (fun c -> if Buffer.length c.out > 0 then Some c.ch.Wire.fd else None)
      in
      let readable, _, _ = Unix.select rd wr [] timeout in
      Array.iter
        (fun c ->
          if List.mem c.ch.Wire.fd readable then
            match Wire.read c.ch with
            | Wire.Eof -> raise (Fail "server closed the connection mid-run")
            | Wire.Data -> drain c
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ())
        conns
    done;
    let wall = Float.max 1e-9 (!t_last -. t_start) in
    (* control requests on connection 0, blocking again: a stats
       snapshot for the report, then (optionally) shutdown; neither
       counts toward the summary *)
    let c0 = conns.(0).ch in
    Unix.clear_nonblock c0.Wire.fd;
    let server_stats =
      match (call c0 (total + 1) Protocol.Stats).Protocol.body with
      | Ok payload -> Some payload
      | Error _ -> None
    in
    if cfg.shutdown then ignore (call c0 (total + 2) Protocol.Shutdown : Protocol.reply);
    Array.iter (fun c -> Wire.close c.ch) conns;
    {
      s_rate = cfg.rate;
      s_achieved = (if total = 0 then 0. else float_of_int total /. wall);
      s_conns = n_conns;
      s_requests = total;
      s_ok = tally.t_ok;
      s_errors = sorted_assoc tally.t_errors Fun.id;
      s_mismatches = tally.t_mismatches;
      s_wall_s = wall;
      s_latency = sorted_assoc tally.t_latencies (fun l -> percentiles_of !l);
      s_queue_depth = shard_inflight server_stats;
      s_prewarm = prewarmed;
      s_server_stats = server_stats;
    }
  with
  | summary -> Ok summary
  | exception Fail msg -> Error msg
  | exception Failure msg -> Error msg
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

(* --- reporting ---------------------------------------------------------------- *)

let pct_json = function Some v -> Json.Int v | None -> Json.Null

let latency_json latency =
  Json.Obj
    (List.map
       (fun (kind, p) ->
         ( kind,
           Json.Obj
             [
               ("count", Json.Int p.l_count);
               ("p50", pct_json p.l_p50_us);
               ("p95", pct_json p.l_p95_us);
               ("p99", pct_json p.l_p99_us);
               ("max", Json.Int p.l_max_us);
             ] ))
       latency)

let summary_to_json s =
  Json.Obj
    [
      ( "loadgen",
        Json.Obj
          [
            ("rate_rps", match s.s_rate with Some r -> Json.Float r | None -> Json.Null);
            ("achieved_rps", Json.Float s.s_achieved);
            ("conns", Json.Int s.s_conns);
            ("requests", Json.Int s.s_requests);
            ("ok", Json.Int s.s_ok);
            ("shed", Json.Int (error_count s Protocol.Overloaded));
            ("worker_lost", Json.Int (error_count s Protocol.Worker_lost));
            ("mismatches", Json.Int s.s_mismatches);
            ("wall_s", Json.Float s.s_wall_s);
            ("errors", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.s_errors));
            ("latency_us", latency_json s.s_latency);
            ( "queue_depth",
              Json.List
                (List.map
                   (fun (shard, inflight) ->
                     Json.Obj [ ("shard", Json.Int shard); ("inflight", Json.Int inflight) ])
                   s.s_queue_depth) );
            ( "prewarm",
              match s.s_prewarm with
              | None -> Json.Null
              | Some (sessions, cold) ->
                  Json.Obj [ ("sessions", Json.Int sessions); ("cold_starts", Json.Int cold) ]
            );
            ( "server_stats",
              match s.s_server_stats with Some j -> j | None -> Json.Null );
          ] );
    ]

let pp_pct ppf = function
  | Some v -> Format.fprintf ppf "%6d" v
  | None -> Format.fprintf ppf "%6s" "-"

let pp_summary ppf s =
  Format.fprintf ppf "loadgen: %d requests over %d conn(s) in %.3f s, %s@." s.s_requests
    s.s_conns s.s_wall_s
    (match s.s_rate with
    | None -> "closed loop"
    | Some r -> Printf.sprintf "%.0f rps target" r);
  Format.fprintf ppf "  achieved %.1f rps, ok %d, errors %d, mismatches %d@." s.s_achieved
    s.s_ok
    (List.fold_left (fun a (_, c) -> a + c) 0 s.s_errors)
    s.s_mismatches;
  (match s.s_prewarm with
  | None -> ()
  | Some (sessions, cold) ->
      Format.fprintf ppf "  prewarmed %d session(s), %d cold start(s) absorbed@." sessions cold);
  List.iter (fun (code, c) -> Format.fprintf ppf "  error %-18s %d@." code c) s.s_errors;
  (match s.s_queue_depth with
  | [] -> ()
  | qs ->
      Format.fprintf ppf "  final queue depth:";
      List.iter (fun (shard, d) -> Format.fprintf ppf " shard %d: %d" shard d) qs;
      Format.fprintf ppf "@.");
  List.iter
    (fun (kind, p) ->
      Format.fprintf ppf "  %-8s count %-5d p50 %a us   p95 %a us   p99 %a us   max %6d us@."
        kind p.l_count pp_pct p.l_p50_us pp_pct p.l_p95_us pp_pct p.l_p99_us p.l_max_us)
    s.s_latency
