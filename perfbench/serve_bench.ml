(* serve-warm and serve-churn: a closed loop over two connections into a
   live [volcomp serve --workers 2] tier, every reply checked off the
   clock against an in-process twin [Handler], and (traced runs) an
   in-process replay of the same request sequence through the functions
   a worker calls, routed to one [Handler] per shard. *)

module Json = Vc_obs.Json
module Metrics = Vc_obs.Metrics
module Protocol = Vc_serve.Protocol
module Handler = Vc_serve.Handler
module Ring = Vc_serve.Ring
module Registry = Vc_check.Registry
module Splitmix = Vc_rng.Splitmix

type kind = Probe | Trace | List

type workload = {
  name : string;
  working_set : (string * int * int64) list;  (** (problem, size, instance seed) *)
  cache : int;  (** per-worker session cache capacity *)
  prewarm : bool;  (** warm every session during set-up *)
  mix : (kind * int) list;
  slots : int;  (** distinct requests in the plan; the run cycles through them *)
  batch : int;  (** requests per [wall_s] batch *)
}

(* One closed-loop connection per core of the 2-core hosts this was
   tuned on, and one tier worker each. *)
let workers = 2
let conns = 2
let setup_repeats = 5

(* The instances are fixed; --seed draws the traffic over them (kinds,
   sessions, origins).  Instance-to-instance cost differences of the
   random graph families would otherwise swamp run-to-run comparisons. *)
let instance_seed k = Splitmix.mix (Int64.of_int (0x5eed + k))

(* Every registry problem at its smallest quick size, two instance seeds
   each: 34 sessions, at most a few hundred microseconds a probe. *)
let warm_sessions =
  List.concat_map
    (fun (e : Registry.entry) ->
      let size = List.fold_left min (List.hd e.Registry.quick_sizes) e.Registry.quick_sizes in
      List.init 2 (fun k -> (e.Registry.name, size, instance_seed k)))
    (Registry.all ())

(* Problems whose probe costs microseconds on instances that take a few
   milliseconds to build, twelve seeds each: 48 sessions against a tier
   holding 2 x 4, so most requests miss and rebuild. *)
let churn_sessions =
  List.concat_map
    (fun (problem, size) -> List.init 12 (fun k -> (problem, size, instance_seed (100 + k))))
    [ ("DegreeParity", 1000); ("CycleColoring3", 2000); ("LeafBitCopy (Ex 7.6)", 8); ("BalancedTree", 8) ]

let serve_warm =
  {
    name = "serve-warm";
    working_set = warm_sessions;
    cache = 48;
    prewarm = true;
    mix = [ (Probe, 6); (Trace, 2); (List, 1) ];
    slots = 16384;
    batch = 5000;
  }

let serve_churn =
  {
    name = "serve-churn";
    working_set = churn_sessions;
    cache = 4;
    prewarm = false;
    mix = [ (Probe, 9); (Trace, 1) ];
    slots = 4096;
    batch = 1000;
  }

(* --- the request plan -------------------------------------------------------- *)

type plan = {
  sessions : (string * int * int64) list;
  queries : Protocol.query array;
  frames : string array;  (** request [i] framed with id [i + 1] *)
  twin : Handler.t;  (** holds every session: the reference for reply bytes *)
}

let make_plan w ~seed =
  let sessions = w.working_set in
  let twin = Handler.create ~cache_capacity:(List.length sessions + 1) () in
  let sarr =
    Array.of_list
      (List.map
         (fun (problem, size, s) ->
           match Handler.instance_n twin ~problem ~size ~seed:s with
           | Ok n -> (problem, size, s, n)
           | Error (_, msg) -> failwith ("plan: " ^ msg))
         sessions)
  in
  let rng = Splitmix.create seed in
  let total = List.fold_left (fun a (_, wt) -> a + wt) 0 w.mix in
  let pick_kind () =
    let r = Splitmix.int rng ~bound:total in
    let rec go acc = function
      | [] -> assert false
      | (k, wt) :: rest -> if r < acc + wt then k else go (acc + wt) rest
    in
    go 0 w.mix
  in
  let queries =
    Array.init w.slots (fun _ ->
        match pick_kind () with
        | List -> Protocol.List
        | (Probe | Trace) as k ->
            let problem, size, seed, n = sarr.(Splitmix.int rng ~bound:(Array.length sarr)) in
            let origin = Splitmix.int rng ~bound:n in
            if k = Probe then Protocol.Probe { problem; size; seed; origin }
            else Protocol.Trace { problem; size; seed; origin })
  in
  let frames = Array.mapi (fun i q -> Tier.request_frame ~id:(i + 1) q) queries in
  { sessions; queries; frames; twin }

(* The reply body a correct tier sends for request [i]; [None] when the
   twin itself fails (every reply to it then counts as failed). *)
let expected plan i =
  match Handler.handle plan.twin plan.queries.(i) with
  | Ok payload -> Some (Json.to_string (Protocol.ok_reply ~id:(i + 1) payload))
  | Error _ -> None

let warm_query (problem, size, seed) = Protocol.Warm { problem; size; seed }

(* --- reply recording and the off-clock check -------------------------------- *)

(* Per plan slot: the first reply body seen, how many replies arrived,
   and every later reply that differed from the first (normally none). *)
type record = {
  first : string option array;
  count : int array;
  mutable deviants : (int * string) list;
}

let record_create n = { first = Array.make n None; count = Array.make n 0; deviants = [] }

let record r slot body =
  r.count.(slot) <- r.count.(slot) + 1;
  match r.first.(slot) with
  | None -> r.first.(slot) <- Some body
  | Some f -> if not (String.equal f body) then r.deviants <- (slot, body) :: r.deviants

(* Replies that differ from the twin's bytes. *)
let failures plan r =
  let failed = ref 0 in
  let dev = Array.make (Array.length r.first) [] in
  List.iter (fun (s, b) -> dev.(s) <- b :: dev.(s)) r.deviants;
  Array.iteri
    (fun slot first ->
      match first with
      | None -> ()
      | Some f -> (
          let n_dev = List.length dev.(slot) in
          match expected plan slot with
          | None -> failed := !failed + r.count.(slot)
          | Some want ->
              if not (String.equal f want) then failed := !failed + (r.count.(slot) - n_dev);
              List.iter (fun b -> if not (String.equal b want) then incr failed) dev.(slot)))
    r.first;
  !failed

(* --- one live run ------------------------------------------------------------ *)

type live = {
  sent : int;
  failed : int;
  measured_s : float;
  latencies : float array;  (** seconds, every request *)
  batch_s : float array;  (** durations of consecutive [batch]-request batches *)
  setup_s : float;
  rss_mb : float;
  before : Json.t;  (** tier [stats] just before the measured phase *)
  after : Json.t;  (** and just after *)
}

let run_live w plan ~exe ~out_dir ~seconds ~corrupt =
  let socket = Filename.concat out_dir (Printf.sprintf "t%d.sock" (Unix.getpid ())) in
  let log = Filename.concat out_dir "tier.log" in
  let setup () =
    Util.time (fun () ->
        let tier = Tier.spawn ~exe ~socket ~log ~cache:w.cache ~workers in
        if w.prewarm then
          List.iteri
            (fun i s -> ignore (Tier.call tier.Tier.control ~id:(i + 10) (warm_query s) : Json.t))
            plan.sessions;
        tier)
  in
  let setups =
    List.init (setup_repeats - 1) (fun _ ->
        let tier, dt = setup () in
        Tier.shutdown tier;
        dt)
  in
  let tier, dt = setup () in
  let before = Tier.stats tier in
  let conns = Array.init conns (fun _ -> Tier.connect socket) in
  let rec_ = record_create w.slots in
  let lats = Util.Fbuf.create () in
  let marks = Util.Fbuf.create () in
  let completed = ref 0 in
  let t0 = Util.now () in
  Util.Fbuf.push marks t0;
  let on_reply slot body lat =
    let body =
      if Some !completed = corrupt then begin
        let b = Bytes.of_string body in
        let i = Bytes.length b / 2 in
        Bytes.set b i (if Bytes.get b i = '#' then '%' else '#');
        Bytes.to_string b
      end
      else body
    in
    record rec_ slot body;
    Util.Fbuf.push lats lat;
    incr completed;
    if !completed mod w.batch = 0 then Util.Fbuf.push marks (Util.now ())
  in
  let sent, measured_s = Tier.closed_loop ~conns ~frames:plan.frames ~seconds ~on_reply in
  Array.iter Tier.close conns;
  let after = Tier.stats tier in
  let rss_mb = Tier.peak_rss_mb tier in
  Tier.shutdown tier;
  let m = Util.Fbuf.to_array marks in
  let batch_s = Array.init (Array.length m - 1) (fun i -> m.(i + 1) -. m.(i)) in
  {
    sent;
    failed = failures plan rec_;
    measured_s;
    latencies = Util.Fbuf.to_array lats;
    batch_s;
    setup_s = Util.mid_median (Array.of_list (dt :: setups));
    rss_mb;
    before;
    after;
  }

(* Timings are medians over the run's [batch]-request batches (a batch
   p99 has batch/100 samples beyond it), so a host stall that spoils one
   batch does not move the run's figures. *)
let end_to_end w l =
  let ok = l.sent - l.failed in
  let nb = Array.length l.batch_s in
  let batches = if nb = 0 then [| l.latencies |] else Array.init nb (fun i -> Array.sub l.latencies (i * w.batch) w.batch) in
  let pct q = 1e6 *. Util.mid_median (Array.map (Util.percentile q) batches) in
  let wall =
    if nb > 0 then Util.mid_median l.batch_s
    else l.measured_s *. float_of_int w.batch /. float_of_int (max 1 l.sent)
  in
  [
    ("wall_s", wall);
    ("goodput_per_s", float_of_int ok /. l.measured_s);
    ("p50_us", pct 50.);
    ("p99_us", pct 99.);
    ("setup_s", l.setup_s);
  ]

(* --- traced replay ------------------------------------------------------------ *)

let replay_cap = 10_000
let overhead_prefix = 2_000

let m_hits = Metrics.counter "serve.cache.hits"
let m_misses = Metrics.counter "serve.cache.misses"
let m_evictions = Metrics.counter "serve.cache.evictions"

let session_of = function
  | Protocol.Probe { problem; size; seed; _ } | Protocol.Trace { problem; size; seed; _ } ->
      Some (problem, size, seed)
  | _ -> None

type replay = {
  decode : float;  (** summed seconds *)
  prepare_hit : float;  (** [Handler.prepare] on session hits *)
  prepare_miss : float;  (** and on misses *)
  compute : float;
  encode : float;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  mismatches : int;
  prefix : float;  (** summed request time of the first [prefix] requests *)
  hit_n : int;
}

(* Replay requests [0, n) of the run (request [k] is plan slot
   [k mod slots]) through per-shard handlers of the tier's capacity —
   what [Server.run_conn] does per request, timed stage by stage.  With
   [spans] the stages are recorded and the cache counters consulted;
   without, the same calls run bare (the tracing-overhead baseline). *)
let replay w plan ~n ~prefix ~spans =
  let ring = Ring.create (List.init workers Fun.id) in
  let handlers = Array.init workers (fun _ -> Handler.create ~cache_capacity:w.cache ()) in
  let shard_of q =
    match session_of q with
    | Some (problem, size, seed) -> Ring.lookup_session ring ~problem ~size ~seed
    | None -> 0
  in
  if w.prewarm then
    List.iter
      (fun ((problem, size, seed) as s) ->
        ignore (Handler.handle handlers.(Ring.lookup_session ring ~problem ~size ~seed) (warm_query s)))
      plan.sessions;
  let was = Metrics.enabled () in
  Metrics.set_enabled (spans <> None);
  let dec = Protocol.decoder () in
  let decode = ref 0. and hit = ref 0. and miss = ref 0. and compute = ref 0. and encode = ref 0. in
  let bytes = ref 0 and prefix_s = ref 0. and hit_n = ref 0 in
  let seen = Array.make w.slots None in
  let c0 = (Metrics.value m_hits, Metrics.value m_misses, Metrics.value m_evictions) in
  for k = 0 to n - 1 do
    let slot = k mod w.slots in
    let frame = plan.frames.(slot) in
    let span name parent = match spans with Some s -> Spans.start s ~name ~parent ~rid:k | None -> -1 in
    let close id = match spans with Some s -> ignore (Spans.stop s id : float) | None -> () in
    let root = span "request" (-1) in
    let t0 = Util.now () in
    let sd = span "protocol.decode" root in
    Protocol.feed dec (Bytes.unsafe_of_string frame) (String.length frame);
    let req =
      match Protocol.next_frame dec with
      | Ok (Some body) -> (
          match Result.bind (Json.parse body) Protocol.request_of_json with
          | Ok req -> req
          | Error msg -> failwith ("replay decode: " ^ msg))
      | _ -> failwith "replay: incomplete frame"
    in
    close sd;
    let t1 = Util.now () in
    let sp = span "handler.prepare" root in
    let misses0 = Metrics.value m_misses in
    let thunk = Handler.prepare handlers.(shard_of req.Protocol.query) req.Protocol.query in
    close sp;
    let t2 = Util.now () in
    let missed = Metrics.value m_misses > misses0 in
    (match spans with
    | Some s when session_of req.Protocol.query <> None ->
        Spans.set_name s sp (if missed then "registry.build" else "handler.hit")
    | _ -> ());
    let sc = span "handler.compute" root in
    let result = thunk () in
    close sc;
    let t3 = Util.now () in
    let se = span "protocol.encode" root in
    let body =
      match result with
      | Ok payload -> Json.to_string (Protocol.ok_reply ~id:req.Protocol.id payload)
      | Error (code, message) -> Json.to_string (Protocol.error_reply ~id:req.Protocol.id ~code ~message)
    in
    let framed = Protocol.frame body in
    close se;
    let t4 = Util.now () in
    close root;
    decode := !decode +. (t1 -. t0);
    (* [list] has no session: its prepare only captures the entry list,
       so its time joins compute *)
    if missed then miss := !miss +. (t2 -. t1)
    else if session_of req.Protocol.query <> None then begin
      hit := !hit +. (t2 -. t1);
      incr hit_n
    end
    else compute := !compute +. (t2 -. t1);
    compute := !compute +. (t3 -. t2);
    encode := !encode +. (t4 -. t3);
    bytes := !bytes + String.length framed;
    if k < prefix then prefix_s := !prefix_s +. (t4 -. t0);
    if spans <> None && seen.(slot) = None then seen.(slot) <- Some body
  done;
  let h0, m0, e0 = c0 in
  let hits = Metrics.value m_hits - h0 in
  let misses = Metrics.value m_misses - m0 in
  let evictions = Metrics.value m_evictions - e0 in
  Metrics.set_enabled was;
  (* off the clock: the replay's replies against the twin's *)
  let mismatches = ref 0 in
  Array.iteri (fun slot b -> if b <> None && b <> expected plan slot then incr mismatches) seen;
  let mismatches = !mismatches in
  {
      decode = !decode;
      prepare_hit = !hit;
      prepare_miss = !miss;
      compute = !compute;
      encode = !encode;
      bytes = !bytes;
      hits;
      misses;
      evictions;
      mismatches;
      prefix = !prefix_s;
      hit_n = !hit_n;
    }

(* Lower bound of the bucket holding the median of merged histograms. *)
let median_bucket buckets =
  let total = List.fold_left (fun a (_, c) -> a + c) 0 buckets in
  let rec go acc = function
    | [] -> 0.
    | (lo, c) :: rest -> if 2 * (acc + c) >= total then float_of_int lo else go (acc + c) rest
  in
  if total = 0 then 0. else go 0 buckets

let delta_buckets after before name =
  let b = Tier.worker_buckets before name in
  List.filter_map
    (fun (lo, c) ->
      let c = c - Option.value (List.assoc_opt lo b) ~default:0 in
      if c > 0 then Some (lo, c) else None)
    (Tier.worker_buckets after name)

let per_layer w plan l ~out_file =
  let n = min l.sent replay_cap in
  let m = min n overhead_prefix in
  (* bare replays before and after the traced one, so warm-up favours neither *)
  let bare () = (replay w plan ~n:m ~prefix:m ~spans:None).prefix in
  let bare1 = bare () in
  let spans = Spans.create () in
  let r = replay w plan ~n ~prefix:m ~spans:(Some spans) in
  let bare = (bare1 +. bare ()) /. 2. in
  Spans.write spans out_file;
  let per x count = if count = 0 then 0. else 1e6 *. x /. float_of_int count in
  let dc name = Tier.worker_counter l.after name - Tier.worker_counter l.before name in
  let sc name = Tier.supervisor_counter l.after name - Tier.supervisor_counter l.before name in
  let hits = dc "serve.cache.hits" and misses = dc "serve.cache.misses" in
  let stage_mean = per (r.decode +. r.prepare_hit +. r.prepare_miss +. r.compute +. r.encode) n in
  let client_mean = 1e6 *. Util.mean l.latencies in
  let handle =
    median_bucket
      (List.sort compare
         (delta_buckets l.after l.before "serve.latency_us.probe"
         @ delta_buckets l.after l.before "serve.latency_us.trace"))
  in
  ( r.mismatches,
    [
      ("protocol.decode_us", per r.decode n);
      ("protocol.encode_us", per r.encode n);
      ("protocol.reply_bytes", float_of_int r.bytes /. float_of_int (max 1 n));
      ("handler.compute_us", per r.compute n);
      ("handler.hit_us", per r.prepare_hit r.hit_n);
      ("registry.build_us", per r.prepare_miss r.misses);
      ("replay.requests", float_of_int n);
      ("replay.lru.hits", float_of_int r.hits);
      ("replay.lru.misses", float_of_int r.misses);
      ("replay.lru.evictions", float_of_int r.evictions);
      ("lru.hits", float_of_int hits);
      ("lru.misses", float_of_int misses);
      ("lru.evictions", float_of_int (dc "serve.cache.evictions"));
      ("lru.hit_ratio", if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses));
      ("supervisor.routed", float_of_int (sc "serve.shard.routed"));
      ("supervisor.shed", float_of_int (sc "serve.shard.shed"));
      ("supervisor.peak_inflight", float_of_int (Tier.supervisor_counter l.after "serve.shard.peak_inflight"));
      ("server.handle_us", handle);
      ("serve.client_mean_us", client_mean);
      ("serve.transport_us", client_mean -. stage_mean);
      ("peak_rss_mb", l.rss_mb);
      ("trace.overhead_pct", if bare > 0. then 100. *. ((r.prefix /. bare) -. 1.) else 0.);
    ] )

(* --- entry point -------------------------------------------------------------- *)

type outcome = { attempted : int; failed : int; metrics : (string * float) list }

let run w ~exe ~out_dir ~seed ~seconds ~trace ~corrupt =
  let plan = make_plan w ~seed in
  let l = run_live w plan ~exe ~out_dir ~seconds ~corrupt in
  if not trace then { attempted = l.sent; failed = l.failed; metrics = end_to_end w l }
  else begin
    let out_file = Filename.concat out_dir (Printf.sprintf "spans-%s-%Ld.jsonl" w.name seed) in
    let mismatches, metrics = per_layer w plan l ~out_file in
    { attempted = l.sent; failed = l.failed + mismatches; metrics }
  end
