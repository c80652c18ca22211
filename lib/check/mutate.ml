module Graph = Vc_graph.Graph
module Bfs = Vc_graph.Bfs
module Lcl = Vc_lcl.Lcl

type ('i, 'o) t = {
  site : Graph.node;
  input : (Graph.node -> 'i) option;
  output : Graph.node -> 'o;
}

type outcome = {
  kind : string;
  site : Graph.node;
  rejected : bool;
  in_radius : bool;
  detail : string;
}

let check ~problem ~graph ~input ~kind (m : _ t) =
  let input = Option.value m.input ~default:input in
  match Lcl.check problem graph ~input ~output:m.output with
  | Ok () -> { kind; site = m.site; rejected = false; in_radius = true; detail = "" }
  | Error violations ->
      let radius = problem.Lcl.radius in
      let in_radius =
        (* a radius at least n covers the whole graph (e.g. the non-LCL
           Example 7.6 problem advertises max_int) *)
        radius >= Graph.n graph
        ||
        let dist = Bfs.distances graph m.site in
        List.for_all (fun v -> dist.(v.Lcl.node) <= radius) violations
      in
      let detail =
        match violations with
        | v :: _ -> Fmt.str "%a" Lcl.pp_violation v
        | [] -> "rejected with no violation record"
      in
      { kind; site = m.site; rejected = true; in_radius; detail }

let reference_failure ~msg =
  { kind = "reference"; site = -1; rejected = false; in_radius = false; detail = msg }
