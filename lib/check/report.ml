type solver_agg = {
  s_name : string;
  s_randomized : bool;
  s_trials : int;
  s_valid : int;
  s_max_volume : int;
  s_max_distance : int;
  s_max_rand_bits : int;
}

type kind_agg = {
  k_kind : string;
  k_total : int;
  k_rejected : int;
  k_out_of_radius : int;
}

type problem_report = {
  p_name : string;
  p_radius : int;
  p_instances : int;
  p_solvers : solver_agg list;
  p_verdicts : (string * bool option) list;
  p_mutations : kind_agg list;
  p_probes_skipped : string list;
  p_failures : string list;
}

type t = {
  seed : int64;
  count : int;
  domains : int;
  quick : bool;
  problems : problem_report list;
}

let mutations_total p = List.fold_left (fun acc k -> acc + k.k_total) 0 p.p_mutations

let mutations_rejected p = List.fold_left (fun acc k -> acc + k.k_rejected) 0 p.p_mutations

(* A skipped mutation probe waives the at-least-one-rejection demand —
   there were no fuzzing rounds to reject anything. *)
let problem_ok p =
  p.p_failures = []
  && (mutations_rejected p >= 1 || List.mem "mutate" p.p_probes_skipped)

let ok t = List.for_all problem_ok t.problems

(* --- human rendering ------------------------------------------------------ *)

let pp_problem ppf p =
  Fmt.pf ppf "@[<v 2>%s  [%s]@," p.p_name (if problem_ok p then "ok" else "FAIL");
  Fmt.pf ppf "instances: %d  radius: %s@," p.p_instances
    (if p.p_radius = max_int then "unbounded" else string_of_int p.p_radius);
  List.iter
    (fun s ->
      Fmt.pf ppf "solver %-28s %s  valid %d/%d  max vol %d  max dist %d  rand bits %d@,"
        s.s_name
        (if s.s_randomized then "(rand)" else "(det) ")
        s.s_valid s.s_trials s.s_max_volume s.s_max_distance s.s_max_rand_bits)
    p.p_solvers;
  if p.p_verdicts <> [] then
    Fmt.pf ppf "probes: %s@,"
      (String.concat "  "
         (List.map
            (fun (name, v) ->
              name ^ " " ^ match v with Some true -> "ok" | Some false -> "FAIL" | None -> "-")
            p.p_verdicts));
  if p.p_probes_skipped <> [] then
    Fmt.pf ppf "probes skipped: %s@," (String.concat ", " p.p_probes_skipped);
  List.iter
    (fun k ->
      Fmt.pf ppf "mutants %-18s rejected %d/%d%s@," k.k_kind k.k_rejected k.k_total
        (if k.k_out_of_radius > 0 then Fmt.str "  OUT-OF-RADIUS %d" k.k_out_of_radius else ""))
    p.p_mutations;
  List.iter (fun f -> Fmt.pf ppf "failure: %s@," f) p.p_failures;
  Fmt.pf ppf "@]"

let pp ppf t =
  Fmt.pf ppf "@[<v>conformance check  seed=%Ld count=%d domains=%d%s@,@," t.seed t.count t.domains
    (if t.quick then " (quick)" else "");
  List.iter (fun p -> Fmt.pf ppf "%a@," pp_problem p) t.problems;
  let failed = List.filter (fun p -> not (problem_ok p)) t.problems in
  if failed = [] then Fmt.pf ppf "all %d problems conformant@." (List.length t.problems)
  else
    Fmt.pf ppf "%d/%d problems FAILED: %s@." (List.length failed) (List.length t.problems)
      (String.concat ", " (List.map (fun p -> p.p_name) failed))

(* --- JSON rendering (via the shared Vc_obs.Json encoder) ------------------- *)

module Json = Vc_obs.Json

let solver_json s =
  Json.Obj
    [
      ("name", Json.String s.s_name);
      ("randomized", Json.Bool s.s_randomized);
      ("trials", Json.Int s.s_trials);
      ("valid", Json.Int s.s_valid);
      ("max_volume", Json.Int s.s_max_volume);
      ("max_distance", Json.Int s.s_max_distance);
      ("max_rand_bits", Json.Int s.s_max_rand_bits);
    ]

let kind_json k =
  Json.Obj
    [
      ("kind", Json.String k.k_kind);
      ("total", Json.Int k.k_total);
      ("rejected", Json.Int k.k_rejected);
      ("out_of_radius", Json.Int k.k_out_of_radius);
    ]

let problem_json p =
  Json.Obj
    [
      ("problem", Json.String p.p_name);
      ("ok", Json.Bool (problem_ok p));
      ("radius", if p.p_radius = max_int then Json.String "unbounded" else Json.Int p.p_radius);
      ("instances", Json.Int p.p_instances);
      ("solvers", Json.List (List.map solver_json p.p_solvers));
      ( "probes",
        Json.Obj
          (List.map
             (fun (n, v) -> (n, match v with None -> Json.Null | Some b -> Json.Bool b))
             p.p_verdicts) );
      ( "mutations",
        Json.Obj
          [
            ("total", Json.Int (mutations_total p));
            ("rejected", Json.Int (mutations_rejected p));
            ( "out_of_radius",
              Json.Int (List.fold_left (fun acc k -> acc + k.k_out_of_radius) 0 p.p_mutations) );
            ("by_kind", Json.List (List.map kind_json p.p_mutations));
          ] );
      ("probes_skipped", Json.List (List.map (fun s -> Json.String s) p.p_probes_skipped));
      ("failures", Json.List (List.map (fun f -> Json.String f) p.p_failures));
    ]

let to_json t =
  Json.Obj
    [
      ("seed", Json.I64 t.seed);
      ("count", Json.Int t.count);
      ("domains", Json.Int t.domains);
      ("quick", Json.Bool t.quick);
      ("ok", Json.Bool (ok t));
      ("problems", Json.List (List.map problem_json t.problems));
    ]
