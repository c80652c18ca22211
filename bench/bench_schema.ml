(* The bench harness's --json document, declared once.

   main.ml takes every member name from these declarations, giving each
   object's values in declaration order; `json_check --bench` validates
   a document against them with its own parser.  Stdlib only, so the
   checker stays independent of the emitter's Vc_obs.Json. *)

type ty =
  | Bool
  | Num
  | Str
  | Any  (** any JSON value *)
  | Opt of ty  (** the value or null *)
  | List of ty  (** an array, possibly empty *)
  | Rows of ty  (** a non-empty array *)
  | Tuple of ty list  (** an array of exactly these *)
  | Obj of obj

and obj = {
  members : (string * ty) list;  (** exactly these, in emission order *)
  gate : string option;  (** a boolean member that must read true *)
}

(* A value `json_check --bench` requires somewhere in the document: some
   value reached by [path] (member names, arrays crossed implicitly)
   matches. *)
type witness = { path : string list; value : [ `Bool of bool | `Prefix of string ]; what : string }

let names o = List.map fst o.members
let plain members = { members; gate = None }

(* Member names used by more than one declaration. *)
let name = "name"
let speedup = "speedup"
let domains = "domains"
let agrees = "agrees"
let all_agree = "all_agree"
let ok = "ok"
let measurements = "measurements"
let quantity = "quantity"
let families = "families"
let synth_key = "synth"
let sat = "sat"
let workload = "workload"
let problem = "problem"

(* A timed two-sided comparison: the row's name, its measured fields,
   the compared statistic, then the gate: its bar (null when the row is
   not gated), whether it is enforced, and whether the row passed. *)
let compared name_member fields stat =
  {
    members =
      ((name_member, Str) :: fields) @ [ stat; ("gate", Opt Num); ("gated", Bool); (ok, Bool) ];
    gate = Some ok;
  }

let gated o = o.gate = Some ok

let measurement =
  {
    members =
      [
        (quantity, Str);
        ("paper_claim", Str);
        ("fitted", Str);
        (agrees, Bool);
        ("points", Rows (Tuple [ Num; Num ]));
      ];
    gate = Some agrees;
  }

let report_with ms =
  { members = [ ("title", Str); (all_agree, Bool); (measurements, ms) ]; gate = Some all_agree }

let report = report_with (List (Obj measurement))
let wallclock = plain [ (name, Str); ("ns_per_run", Opt Num) ]

let parallel =
  compared workload
    [ (domains, Num); ("cores", Num); ("seq_seconds", Num); ("par_seconds", Num) ]
    (speedup, Num)

let micro = compared name [ ("lazy_ns", Num); ("eager_ns", Opt Num) ] (speedup, Opt Num)
let ir_micro = compared name [ ("batched_ns", Num); ("closure_ns", Num) ] (speedup, Num)

let snap =
  compared name [ ("build_ns", Num); ("load_ns", Num); ("bytes", Num) ] (speedup, Num)

let rewarm =
  compared problem [ ("size", Num); ("rebuild_ns", Num); ("snapshot_ns", Num) ] (speedup, Num)

let serve = plain [ (name, Str); ("ns_per_request", Num) ]
let step = plain [ ("rate_rps", Num); ("achieved_rps", Num); ("shed", Num) ]

let saturation =
  plain
    [ ("workers", Num); ("shed_gate", Num); ("saturation_rps", Num); ("steps", Rows (Obj step)) ]

let synth =
  plain
    [
      (problem, Str);
      ("volume", Num);
      (sat, Bool);
      ("cegis", Num);
      ("conflicts", Num);
      ("propagations", Num);
      ("vars", Num);
      ("clauses", Num);
      ("wall_s", Num);
    ]

let obs_overhead =
  compared workload
    [ ("baseline_ns", Num); ("disabled_ns", Num); ("enabled_ns", Num); ("pairs", Num) ]
    ("ratio", Num)

let document =
  plain
    [
      ("quick", Bool);
      (domains, Num);
      ("reports", List (Obj report));
      (families, Rows (Obj (report_with (Rows (Obj measurement)))));
      ("wallclock", Opt (Rows (Obj wallclock)));
      (speedup, Opt (Obj parallel));
      ("micro", Rows (Obj micro));
      ("ir_micro", Rows (Obj ir_micro));
      ("snap", Rows (Obj snap));
      ("rewarm", Obj rewarm);
      ("serve", Rows (Obj serve));
      ("saturation", Opt (Obj saturation));
      (synth_key, Opt (Rows (Obj synth)));
      ("obs_overhead", Obj obs_overhead);
      ("metrics", Any);
    ]

(* Beyond shape, a checked bench report must carry both synthesis
   verdicts and Question 7.3's sinkless-orientation family rungs. *)
let witnesses =
  [
    { path = [ synth_key; sat ]; value = `Bool true; what = "a SAT synth row" };
    { path = [ synth_key; sat ]; value = `Bool false; what = "an UNSAT synth row" };
    {
      path = [ families; measurements; quantity ];
      value = `Prefix "SO:";
      what = "sinkless-orientation (SO:) family rungs";
    };
  ]
