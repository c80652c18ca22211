module Graph = Vc_graph.Graph

type ('i, 'o) t = {
  name : string;
  radius : int;
  valid_at :
    Graph.t ->
    input:(Graph.node -> 'i) ->
    output:(Graph.node -> 'o) ->
    Graph.node ->
    (unit, string) result;
}

type violation = {
  node : Graph.node;
  reason : string;
}

let pp_violation ppf v = Fmt.pf ppf "node %d: %s" v.node v.reason

let check problem g ~input ~output =
  let violations =
    Graph.fold_nodes g ~init:[] ~f:(fun acc v ->
        match problem.valid_at g ~input ~output v with
        | Ok () -> acc
        | Error reason -> { node = v; reason } :: acc)
  in
  match violations with [] -> Ok () | vs -> Error (List.rev vs)

let is_valid problem g ~input ~output = Result.is_ok (check problem g ~input ~output)

type ('i, 'o) solver = {
  solver_name : string;
  randomized : bool;
  solve : 'i Vc_model.Probe.ctx -> 'o;
}

let with_name problem ~name = { problem with name }

let solver ~name ~randomized solve = { solver_name = name; randomized; solve }

let volume_bounds_from_distance ~delta ~distance =
  let upper =
    (* delta^distance + 1, saturating *)
    let rec power acc i =
      if i = 0 then acc
      else if acc > max_int / max delta 1 then max_int
      else power (acc * delta) (i - 1)
    in
    let p = power 1 distance in
    if p = max_int then max_int else p + 1
  in
  (distance, upper)
