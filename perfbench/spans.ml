(* In-memory span log for traced runs.  A span is a name, a start and an
   end (seconds since the log was created), the span that caused it
   (-1 for a root) and the request or pass it belongs to.  Nothing is
   written until [write], so recording costs two clock reads and a few
   array stores. *)

type t = {
  origin : float;
  mutable names : string array;
  mutable parents : int array;
  mutable rids : int array;
  mutable starts : Float.Array.t;
  mutable stops : Float.Array.t;
  mutable len : int;
}

let create () =
  let cap = 4096 in
  {
    origin = Util.now ();
    names = Array.make cap "";
    parents = Array.make cap 0;
    rids = Array.make cap 0;
    starts = Float.Array.make cap 0.;
    stops = Float.Array.make cap 0.;
    len = 0;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  let fext a =
    let b = Float.Array.make cap 0. in
    Float.Array.blit a 0 b 0 t.len;
    b
  in
  t.names <- ext t.names "";
  t.parents <- ext t.parents 0;
  t.rids <- ext t.rids 0;
  t.starts <- fext t.starts;
  t.stops <- fext t.stops

(* Open a span now; returns its id. *)
let start t ~name ~parent ~rid =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.names.(id) <- name;
  t.parents.(id) <- parent;
  t.rids.(id) <- rid;
  Float.Array.set t.starts id (Util.now () -. t.origin);
  Float.Array.set t.stops id nan;
  t.len <- id + 1;
  id

(* Close span [id] now; returns its duration in seconds. *)
let stop t id =
  let e = Util.now () -. t.origin in
  Float.Array.set t.stops id e;
  e -. Float.Array.get t.starts id

let set_name t id name = t.names.(id) <- name

(* One JSON object per line, in the order spans were opened. *)
let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      for i = 0 to t.len - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":\"%s\",\"parent\":%d,\"rid\":%d,\"start_us\":%.3f,\"end_us\":%.3f}\n"
          i (Vc_obs.Json.escape t.names.(i)) t.parents.(i) t.rids.(i)
          (1e6 *. Float.Array.get t.starts i)
          (1e6 *. Float.Array.get t.stops i)
      done)
