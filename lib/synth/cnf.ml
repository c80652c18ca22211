type t = {
  sat : Sat.t;
  mutable rev_clauses : int list list;
  mutable n_clauses : int;
}

let create () = { sat = Sat.create (); rev_clauses = []; n_clauses = 0 }
let fresh t = Sat.new_var t.sat
let n_vars t = Sat.n_vars t.sat

let add t lits =
  Sat.add_clause t.sat lits;
  t.rev_clauses <- lits :: t.rev_clauses;
  t.n_clauses <- t.n_clauses + 1

let implies t a b = add t [ -a; b ]

let at_most_one t ls =
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> add t [ -a; -b ]) rest;
        pairs rest
  in
  pairs ls

let exactly_one t ls =
  add t ls;
  at_most_one t ls

let define_and t ls =
  let g = fresh t in
  List.iter (fun l -> implies t g l) ls;
  add t (g :: List.map (fun l -> -l) ls);
  g

let solve t = Sat.solve t.sat
let value t v = Sat.value t.sat v
let simplify t = Sat.simplify t.sat
let stats t = Sat.stats t.sat
let certify_unsat ?budget t = Sat.certify_unsat ?budget t.sat
let n_clauses t = t.n_clauses
let clauses t = List.rev t.rev_clauses

let to_dimacs t =
  let buf = Buffer.create (64 * (t.n_clauses + 1)) in
  Buffer.add_string buf (Printf.sprintf "p cnf %d %d\n" (n_vars t) t.n_clauses);
  List.iter
    (fun c ->
      List.iter (fun l -> Buffer.add_string buf (Printf.sprintf "%d " l)) c;
      Buffer.add_string buf "0\n")
    (clauses t);
  Buffer.contents buf

let write_dimacs t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_dimacs t))

let of_dimacs text =
  let lines = String.split_on_char '\n' text in
  let t = create () in
  let declared_vars = ref (-1) in
  let declared_cls = ref (-1) in
  let cur = ref [] in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let token tok =
    match int_of_string_opt tok with
    | None -> fail (Printf.sprintf "bad literal %S" tok)
    | Some 0 ->
        add t (List.rev !cur);
        cur := []
    | Some l ->
        let v = abs l in
        if !declared_vars < 0 then fail "literal before p-line"
        else if v > !declared_vars then
          fail (Printf.sprintf "literal %d out of declared range %d" l !declared_vars)
        else cur := l :: !cur
  in
  List.iter
    (fun line ->
      if !err = None then
        let line = String.trim line in
        if line = "" || line.[0] = 'c' then ()
        else if line.[0] = 'p' then begin
          if !declared_vars >= 0 then fail "duplicate p-line"
          else
            match String.split_on_char ' ' line |> List.filter (( <> ) "") with
            | [ "p"; "cnf"; nv; nc ] -> (
                match (int_of_string_opt nv, int_of_string_opt nc) with
                | Some nv, Some nc when nv >= 0 && nc >= 0 ->
                    declared_vars := nv;
                    declared_cls := nc;
                    for _ = 1 to nv do
                      ignore (fresh t)
                    done
                | _ -> fail (Printf.sprintf "bad p-line %S" line))
            | _ -> fail (Printf.sprintf "bad p-line %S" line)
        end
        else if !declared_vars < 0 then fail "clause before p-line"
        else
          String.split_on_char ' ' line
          |> List.filter (( <> ) "")
          |> List.iter (fun tok -> if !err = None then token tok))
    lines;
  match !err with
  | Some msg -> Error ("dimacs: " ^ msg)
  | None ->
      if !declared_vars < 0 then Error "dimacs: missing p-line"
      else if !cur <> [] then Error "dimacs: unterminated clause"
      else if !declared_cls >= 0 && t.n_clauses <> !declared_cls then
        Error
          (Printf.sprintf "dimacs: header declares %d clauses, found %d" !declared_cls
             t.n_clauses)
      else Ok t
