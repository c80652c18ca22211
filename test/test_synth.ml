(* Tests for the synthesis subsystem: the home-grown CDCL core is
   checked against brute force on random small CNFs, every UNSAT
   verdict is certified by DRUP replay, DIMACS round-trips, and level-0
   propagation is compared with a naive reference propagator; above the
   SAT layer, the encoder's template validation, the end-to-end
   CEGIS verdicts on the shipped problem universes, and the
   single-instruction JSON codec the decoder rides on. *)

module Sat = Vc_synth.Sat
module Cnf = Vc_synth.Cnf
module Encode = Vc_synth.Encode
module Classify = Vc_synth.Classify
module Ir = Vc_ir.Ir
module Json = Vc_obs.Json

(* --- helpers -------------------------------------------------------------- *)

let build nv cls =
  let c = Cnf.create () in
  for _ = 1 to nv do
    ignore (Cnf.fresh c)
  done;
  List.iter (Cnf.add c) cls;
  c

let lit_true_in m l =
  let b = (m lsr (abs l - 1)) land 1 = 1 in
  if l > 0 then b else not b

let brute_sat nv cls =
  let sat = ref false in
  for m = 0 to (1 lsl nv) - 1 do
    if (not !sat) && List.for_all (List.exists (lit_true_in m)) cls then sat := true
  done;
  !sat

(* Reference unit propagation to fixpoint; returns the sorted set of
   forced literals, or [`Unsat] on a propagation conflict. *)
let naive_propagate nv cls =
  (* match the solver's clause normalization: x ∨ x ≡ x *)
  let cls = List.map (List.sort_uniq compare) cls in
  let assign = Array.make (nv + 1) 0 in
  let exception Conflict in
  try
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun c ->
          let satisfied =
            List.exists (fun l -> assign.(abs l) = if l > 0 then 1 else -1) c
          in
          if not satisfied then
            match List.filter (fun l -> assign.(abs l) = 0) c with
            | [] -> raise Conflict
            | [ l ] ->
                assign.(abs l) <- (if l > 0 then 1 else -1);
                changed := true
            | _ -> ())
        cls
    done;
    `Fixed
      (List.init nv (fun i -> i + 1)
      |> List.concat_map (fun v ->
             if assign.(v) = 1 then [ v ] else if assign.(v) = -1 then [ -v ] else []))
  with Conflict -> `Unsat

let cnf_arb =
  let open QCheck in
  let gen =
    let open Gen in
    int_range 3 9 >>= fun nv ->
    let lit =
      int_range 1 nv >>= fun v ->
      oneofl [ v; -v ]
    in
    list_size (int_range 1 40) (list_size (int_range 1 3) lit) >>= fun cls ->
    return (nv, cls)
  in
  let print (nv, cls) =
    Printf.sprintf "nv=%d cls=[%s]" nv
      (String.concat "; "
         (List.map (fun c -> String.concat " " (List.map string_of_int c)) cls))
  in
  make ~print gen

(* --- reference DRUP checker ------------------------------------------------ *)

(* The occurrence-list checker [Sat.certify_unsat] used before the
   watched-literal one, kept verbatim as a differential reference: for
   each step it re-seeds the unit clauses by scanning the whole
   database and visits every clause containing a falsified literal end
   to end.  Quadratic, but simple enough to trust.  Takes DIMACS
   clauses, like [Sat.check_drup]. *)
let grow_arr a n =
  let b = Array.make n [||] in
  Array.blit a 0 b 0 (Array.length a);
  b

let reference_check_drup ?(budget = 200_000_000) ~nvars ~originals proof =
  let internal c = Array.map (fun l -> (2 * (abs l - 1)) lor if l < 0 then 1 else 0) c in
  let originals = List.map internal originals and proof = List.map internal proof in
  let db = ref (Array.of_list originals) in
  let db_len = ref (Array.length !db) in
  let steps = proof in
  (* occurrence lists, extended as learned clauses are accepted *)
  let nlits = 2 * max 1 nvars in
  let occ = Array.make nlits [] in
  let add_occ ci c = Array.iter (fun l -> occ.(l) <- ci :: occ.(l)) c in
  Array.iteri add_occ !db;
  let push_db c =
    if !db_len >= Array.length !db then db := grow_arr !db (max 16 (2 * !db_len));
    !db.(!db_len) <- c;
    add_occ !db_len c;
    incr db_len
  in
  (* epoch-stamped assignment: valid iff stamp = epoch *)
  let stamp = Array.make (max 1 nvars) 0 in
  let va = Array.make (max 1 nvars) 0 in
  let epoch = ref 0 in
  let work = ref 0 in
  let lv l =
    let v = l lsr 1 in
    if stamp.(v) <> !epoch then -1 else va.(v) lxor (l land 1)
  in
  let set_true l =
    let v = l lsr 1 in
    stamp.(v) <- !epoch;
    va.(v) <- (l land 1) lxor 1
  in
  let exception Conflict in
  let exception Out_of_budget in
  (* Returns true iff propagation reaches a conflict. *)
  let rup assumption =
    incr epoch;
    let queue = Queue.create () in
    try
      (* assume the negation of every literal of the step *)
      Array.iter
        (fun l ->
          let nl = l lxor 1 in
          match lv nl with
          | 0 -> raise Conflict
          | 1 -> ()
          | _ ->
              set_true nl;
              Queue.push nl queue)
        assumption;
      (* seed with the database's unit (and empty) clauses *)
      for ci = 0 to !db_len - 1 do
        let c = !db.(ci) in
        match Array.length c with
        | 0 -> raise Conflict
        | 1 -> (
            incr work;
            match lv c.(0) with
            | 0 -> raise Conflict
            | 1 -> ()
            | _ ->
                set_true c.(0);
                Queue.push c.(0) queue)
        | _ -> ()
      done;
      while not (Queue.is_empty queue) do
        let l = Queue.pop queue in
        let falsified = l lxor 1 in
        List.iter
          (fun ci ->
            let c = !db.(ci) in
            work := !work + Array.length c;
            if !work > budget then raise Out_of_budget;
            (* scan for satisfied / unassigned literals *)
            let unassigned = ref (-1) in
            let n_unassigned = ref 0 in
            let satisfied = ref false in
            Array.iter
              (fun m ->
                if not !satisfied then
                  match lv m with
                  | 1 -> satisfied := true
                  | -1 ->
                      incr n_unassigned;
                      unassigned := m
                  | _ -> ())
              c;
            if not !satisfied then
              if !n_unassigned = 0 then raise Conflict
              else if !n_unassigned = 1 && lv !unassigned < 0 then begin
                set_true !unassigned;
                Queue.push !unassigned queue
              end)
          occ.(falsified)
      done;
      false
    with
    | Conflict -> true
    | Out_of_budget -> raise Out_of_budget
  in
  try
    let rec go i = function
      | [] -> Error "certify_unsat: proof log is empty"
      | [ last ] ->
          if Array.length last <> 0 then
            Error "certify_unsat: proof does not end with the empty clause"
          else if rup last then Ok ()
          else Error "certify_unsat: final conflict is not implied by unit propagation"
      | c :: rest ->
          if rup c then begin
            push_db c;
            go (i + 1) rest
          end
          else Error (Printf.sprintf "certify_unsat: proof step %d is not RUP" i)
    in
    go 0 steps
  with Out_of_budget -> Error "certify_unsat: certification budget exceeded"

(* --- qcheck properties ----------------------------------------------------- *)

let prop_solve_matches_brute_force =
  QCheck.Test.make ~name:"CDCL verdict matches brute force; SAT models check out"
    ~count:300 cnf_arb (fun (nv, cls) ->
      let c = build nv cls in
      match Cnf.solve c with
      | Sat ->
          brute_sat nv cls
          && List.for_all
               (List.exists (fun l ->
                    let b = Cnf.value c (abs l) in
                    if l > 0 then b else not b))
               cls
      | Unsat -> (not (brute_sat nv cls)) && Cnf.certify_unsat c = Ok ())

let prop_dimacs_round_trip =
  QCheck.Test.make ~name:"DIMACS export -> import round-trips" ~count:200 cnf_arb
    (fun (nv, cls) ->
      let c = build nv cls in
      match Cnf.of_dimacs (Cnf.to_dimacs c) with
      | Error e -> QCheck.Test.fail_reportf "re-import failed: %s" e
      | Ok c' ->
          Cnf.n_vars c' = Cnf.n_vars c
          && Cnf.clauses c' = Cnf.clauses c
          && Cnf.solve c' = Cnf.solve c)

let prop_simplify_matches_naive =
  QCheck.Test.make ~name:"level-0 propagation matches naive reference" ~count:300
    cnf_arb (fun (nv, cls) ->
      let c = build nv cls in
      match (Cnf.simplify c, naive_propagate nv cls) with
      | `Unsat, `Unsat -> true
      | `Fixed got, `Fixed want -> List.sort compare got = List.sort compare want
      | `Unsat, `Fixed _ | `Fixed _, `Unsat -> false)

let prop_incremental_block_models =
  QCheck.Test.make ~name:"incremental model blocking enumerates then certifies UNSAT"
    ~count:60
    QCheck.(int_range 2 5)
    (fun nv ->
      let c = Cnf.create () in
      let vars = List.init nv (fun _ -> Cnf.fresh c) in
      Cnf.exactly_one c vars;
      let models = ref 0 in
      let continue = ref true in
      while !continue do
        match Cnf.solve c with
        | Unsat -> continue := false
        | Sat ->
            incr models;
            let blocking =
              List.map (fun v -> if Cnf.value c v then -v else v) vars
            in
            Cnf.add c blocking
      done;
      !models = nv && Cnf.certify_unsat c = Ok ())

(* A random small CNF made UNSAT by blocking each model in turn, so the
   proof log spans several incremental [solve] calls; plus a proof
   mutation (kind, two positions, a clause over distinct variables). *)
let drup_case_arb =
  let open QCheck in
  let gen =
    let open Gen in
    int_range 4 7 >>= fun nv ->
    let lit =
      int_range 1 nv >>= fun v ->
      oneofl [ v; -v ]
    in
    (* no unit clauses, so the proofs are more than one step *)
    list_size (int_range 0 24) (list_size (int_range 2 3) lit) >>= fun cls ->
    int_range 0 5 >>= fun kind ->
    int_bound 1000 >>= fun a ->
    int_bound 1000 >>= fun b ->
    list_size (int_range 1 3) lit >>= fun extra ->
    return
      (nv, cls, kind, a, b, List.sort_uniq (fun x y -> compare (abs x) (abs y)) extra)
  in
  let print (nv, cls, kind, a, b, extra) =
    let clause c = String.concat " " (List.map string_of_int c) in
    Printf.sprintf "nv=%d cls=[%s] mutation=%d a=%d b=%d extra=[%s]" nv
      (String.concat "; " (List.map clause cls))
      kind a b (clause extra)
  in
  make ~print gen

let unsat_solver nv cls =
  let t = Sat.create () in
  for _ = 1 to nv do
    ignore (Sat.new_var t)
  done;
  List.iter (Sat.add_clause t) cls;
  while Sat.solve t = Sat.Sat do
    Sat.add_clause t (List.init nv (fun i -> if Sat.value t (i + 1) then -(i + 1) else i + 1))
  done;
  t

(* 0 flip a lemma literal, 1 drop a lemma, 2 drop the final empty
   clause, 3 drop an original, 4 insert a clause, 5 swap two lemmas *)
let mutate (kind, a, b, extra) (originals, proof) =
  let drop i l = List.filteri (fun j _ -> j <> i) l in
  let n = List.length proof in
  match kind with
  | 0 -> (
      match List.filter (fun c -> Array.length c > 0) proof with
      | [] -> (originals, proof)
      | nonempty ->
          let victim = List.nth nonempty (a mod List.length nonempty) in
          let flip c =
            if c != victim then c
            else Array.mapi (fun j l -> if j = b mod Array.length c then -l else l) c
          in
          (originals, List.map flip proof))
  | 1 -> (originals, drop (a mod n) proof)
  | 2 -> (originals, List.filteri (fun j _ -> j < n - 1) proof)
  | 3 -> (drop (a mod max 1 (List.length originals)) originals, proof)
  | 4 ->
      let k = a mod (n + 1) in
      (originals, List.filteri (fun j _ -> j < k) proof
                  @ (Array.of_list extra :: List.filteri (fun j _ -> j >= k) proof))
  | _ ->
      let arr = Array.of_list proof in
      let i = a mod n and j = b mod n in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp;
      (originals, Array.to_list arr)

let prop_drup_matches_reference =
  QCheck.Test.make ~name:"watched DRUP checker agrees with the occurrence-list reference"
    ~count:300 drup_case_arb (fun (nv, cls, kind, a, b, extra) ->
      let verdicts (originals, proof) =
        ( Result.is_ok (Sat.check_drup ~budget:max_int ~nvars:nv ~originals proof),
          Result.is_ok (reference_check_drup ~budget:max_int ~nvars:nv ~originals proof) )
      in
      let log = Sat.drup_log (unsat_solver nv cls) in
      let mine, theirs = verdicts (mutate (kind, a, b, extra) log) in
      verdicts log = (true, true) && mine = theirs)

(* --- unit tests ------------------------------------------------------------ *)

let test_pigeonhole_unsat () =
  (* 4 pigeons, 3 holes: UNSAT, and the learned-clause log certifies. *)
  let c = Cnf.create () in
  let p = Array.init 4 (fun _ -> Array.init 3 (fun _ -> Cnf.fresh c)) in
  for i = 0 to 3 do
    Cnf.add c (Array.to_list p.(i))
  done;
  for j = 0 to 2 do
    Cnf.at_most_one c (List.init 4 (fun i -> p.(i).(j)))
  done;
  Alcotest.(check bool) "unsat" true (Cnf.solve c = Unsat);
  (match Cnf.certify_unsat c with
  | Ok () -> ()
  | Error e -> Alcotest.failf "certification failed: %s" e);
  let st = Cnf.stats c in
  Alcotest.(check bool) "solver actually searched" true (st.conflicts > 0)

let test_deterministic () =
  let mk () =
    let c = Cnf.create () in
    let vars = List.init 12 (fun _ -> Cnf.fresh c) in
    List.iteri
      (fun i v ->
        let w = List.nth vars ((i + 5) mod 12) in
        Cnf.add c [ -v; w ];
        if i mod 3 = 0 then Cnf.add c [ v; -w ])
      vars;
    Cnf.exactly_one c (List.filteri (fun i _ -> i mod 2 = 0) vars);
    let verdict = Cnf.solve c in
    let model =
      if verdict = Sat then List.map (Cnf.value c) vars else []
    in
    (verdict, model, Cnf.stats c)
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "identical runs" true (a = b)

let test_define_and () =
  let c = Cnf.create () in
  let a = Cnf.fresh c and b = Cnf.fresh c in
  let g = Cnf.define_and c [ a; -b ] in
  Cnf.add c [ g ];
  Alcotest.(check bool) "sat" true (Cnf.solve c = Sat);
  Alcotest.(check bool) "a true" true (Cnf.value c a);
  Alcotest.(check bool) "b false" false (Cnf.value c b)

let test_simplify_chain () =
  let c = Cnf.create () in
  let v = List.init 4 (fun _ -> Cnf.fresh c) in
  let a = List.nth v 0 and b = List.nth v 1 and d = List.nth v 2 in
  Cnf.add c [ a ];
  Cnf.implies c a b;
  Cnf.implies c b d;
  match Cnf.simplify c with
  | `Unsat -> Alcotest.fail "unexpected unsat"
  | `Fixed ls ->
      Alcotest.(check (list int)) "chain forced" [ a; b; d ] ls

let test_empty_clause_unsat () =
  let c = Cnf.create () in
  ignore (Cnf.fresh c);
  Cnf.add c [];
  Alcotest.(check bool) "unsat" true (Cnf.solve c = Unsat);
  Alcotest.(check bool) "certified" true (Cnf.certify_unsat c = Ok ())

(* [1] follows from (1 2)(1 -2) by unit propagation, [3] from the
   ternaries once 1 is known, and then the empty clause; but assuming 1
   alone forces nothing, so [-1] is not a RUP lemma. *)
let drup_originals =
  [ [| 1; 2 |]; [| 1; -2 |]; [| -1; 3; 4 |]; [| -1; 3; -4 |]; [| -1; -3; 4 |]; [| -1; -3; -4 |] ]

let drup_proof = [ [| 1 |]; [| 3 |]; [||] ]

let test_check_drup_rejects () =
  let check ?budget proof =
    Sat.check_drup ?budget ~nvars:4 ~originals:drup_originals proof
  in
  let rejects name r =
    match r with
    | Ok () -> Alcotest.failf "%s: accepted" name
    | Error msg -> Alcotest.(check bool) (name ^ ": reason given") true (msg <> "")
  in
  Alcotest.(check bool) "valid proof accepted" true (check drup_proof = Ok ());
  rejects "flipped literal" (check [ [| -1 |]; [| 3 |]; [||] ]);
  rejects "dropped lemma" (check [ [| 3 |]; [||] ]);
  rejects "missing final empty clause" (check [ [| 1 |]; [| 3 |] ]);
  rejects "empty proof" (check []);
  rejects "budget of 1" (check ~budget:1 drup_proof);
  rejects "out-of-range literal" (check [ [| 5 |]; [||] ]);
  rejects "not UNSAT" (Sat.certify_unsat (Sat.create ()))

(* --- instruction JSON codec ------------------------------------------------ *)

let port_sel_gen =
  QCheck.Gen.(
    oneof [ map (fun p -> Ir.P_const p) (1 -- 3); map (fun f -> Ir.P_field f) (0 -- 2) ])

let cond_gen =
  QCheck.Gen.(
    oneof
      [
        map2 (fun r k -> Ir.C_deg_le (r, k)) (0 -- 2) (0 -- 4);
        map2 (fun r k -> Ir.C_deg_eq (r, k)) (0 -- 2) (0 -- 4);
        map3 (fun r m k -> Ir.C_deg_mod (r, m, k)) (0 -- 2) (2 -- 3) (0 -- 2);
        map2 (fun r s -> Ir.C_port_ok (r, s)) (0 -- 2) port_sel_gen;
        map3 (fun r f k -> Ir.C_label_eq (r, f, k)) (0 -- 2) (0 -- 3) (0 -- 3);
        map3 (fun r f g -> Ir.C_field_eq (r, f, g)) (0 -- 2) (0 -- 3) (0 -- 3);
        map2 (fun r s -> Ir.C_node_eq (r, s)) (0 -- 2) (0 -- 2);
        map (fun r -> Ir.C_marked r) (0 -- 2);
        map (fun q -> Ir.C_queue_empty q) (0 -- 1);
      ])

let instr_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun at dst path -> Ir.Probe { at; path; dst })
          (0 -- 2) (0 -- 2)
          (array_size (1 -- 3) port_sel_gen);
        map (fun t -> Ir.Jump t) (0 -- 9);
        map3
          (fun cond if_true if_false -> Ir.Branch { cond; if_true; if_false })
          cond_gen (0 -- 9) (0 -- 9);
        map2 (fun src dst -> Ir.Move { src; dst }) (0 -- 2) (0 -- 2);
        map (fun r -> Ir.Mark r) (0 -- 2);
        map2 (fun queue src -> Ir.Push { queue; src }) (0 -- 1) (0 -- 2);
        map2 (fun queue dst -> Ir.Pop { queue; dst }) (0 -- 1) (0 -- 2);
        map (fun k -> Ir.Out_const k) (0 -- 3);
        map (fun k -> Ir.Out_fn k) (0 -- 3);
        return Ir.Halt;
      ])

let instr_arb =
  QCheck.make instr_gen ~print:(fun i -> Json.to_string (Ir.instr_to_json i))

let prop_instr_json_round_trip =
  QCheck.Test.make ~name:"instr JSON codec round-trips" ~count:500 instr_arb (fun i ->
      match Ir.instr_of_json (Ir.instr_to_json i) with
      | Ok i' -> i = i'
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let test_instr_json_rejects () =
  let bad j =
    match Ir.instr_of_json j with
    | Ok _ -> Alcotest.fail "malformed instruction decoded"
    | Error _ -> ()
  in
  bad Json.Null;
  bad (Json.Obj [ ("op", Json.String "no-such-op") ]);
  bad (Json.Obj [ ("op", Json.String "probe") ]);
  bad (Json.String "halt")

(* --- encoder and classification ------------------------------------------- *)

let test_check_template_rejects () =
  let reject what t =
    match Encode.check_template t with
    | Ok () -> Alcotest.failf "accepted template with %s" what
    | Error _ -> ()
  in
  let base ~slots =
    { Encode.t_name = "t"; n_regs = 1; obs_arity = 0; n_consts = 2; slots }
  in
  reject "empty menu" (base ~slots:[| [||]; [| Ir.Out_const 0 |] |]);
  reject "backward jump"
    (base ~slots:[| [| Ir.Jump 0 |]; [| Ir.Out_const 0 |] |]);
  reject "non-terminal last slot" (base ~slots:[| [| Ir.Jump 1 |]; [| Ir.Halt |] |]);
  reject "out-of-range const" (base ~slots:[| [| Ir.Out_const 7 |] |]);
  reject "fragment violation (Mark)"
    (base ~slots:[| [| Ir.Mark 0 |]; [| Ir.Out_const 0 |] |]);
  match
    Encode.check_template
      (base ~slots:[| [| Ir.Jump 1; Ir.Out_const 1 |]; [| Ir.Out_const 0 |] |])
  with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "rejected well-formed template: %s" msg

let spec_of name =
  match Classify.find name with
  | Some s -> s
  | None -> Alcotest.failf "spec %s not found" name

let test_find_aliases () =
  List.iter
    (fun name ->
      match Classify.find name with
      | Some _ -> ()
      | None -> Alcotest.failf "lookup %S failed" name)
    [ "degree-parity"; "DEGREE-PARITY"; "DegreeParity"; "CycleColoring3"; "LeafColoring" ];
  Alcotest.(check bool) "unknown name" true (Classify.find "no-such-problem" = None)

let test_degree_parity_sat () =
  let s = spec_of "degree-parity" in
  match Classify.run s ~volume:1 with
  | Error msg -> Alcotest.fail msg
  | Ok v -> (
      Alcotest.(check bool) "SAT at volume 1" true v.Classify.v_sat;
      match v.Classify.v_report.Encode.outcome with
      | Encode.Unsat_at_budget -> Alcotest.fail "SAT verdict without witness"
      | Encode.Synthesized p -> (
          (* the witness must survive an independent re-examination *)
          match Encode.recheck s.Classify.s_universe p with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "recheck: %s" msg))

let test_degree_parity_unsat_axiom () =
  let s = spec_of "degree-parity" in
  match Classify.run s ~volume:0 with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
      Alcotest.(check bool) "UNSAT at volume 0" false v.Classify.v_sat;
      (* the VOL >= 1 axiom short-circuits before any solving *)
      Alcotest.(check int) "no CEGIS iterations" 0 v.Classify.v_report.Encode.cegis_iters

(* The probe rung (s_unsat_volume = 3) is the rung directly below the
   volume-4 witness; its ~1.9 * 10^4-lemma proof replays in well under a
   second.  @synth-smoke certifies the same rung through the binary. *)
let test_leaf_unsat_below_bound_certified () =
  let s = spec_of "leaf-coloring" in
  let rung = s.Classify.s_unsat_volume in
  (match s.Classify.s_bound with
  | Some bound -> Alcotest.(check bool) "budget below bound" true (rung < bound)
  | None -> Alcotest.fail "leaf-coloring lost its adversary bound");
  match Classify.run ~certify:true s ~volume:rung with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
      Alcotest.(check bool) "UNSAT at the probe rung" false v.Classify.v_sat;
      Alcotest.(check bool)
        "DRUP-certified" true
        (v.Classify.v_report.Encode.certified = Some true)

(* Run the synth oracle probe on the named problem's smallest trial. *)
let oracle_probe_on problem =
  match Vc_check.Oracle.find_entry problem with
  | Error msg -> Alcotest.fail msg
  | Ok entry ->
      let size = List.hd entry.Vc_check.Registry.quick_sizes and seed = 1L in
      Classify.oracle_probe.run
        { entry; size; seed; trial = entry.make ~size ~seed (); pool = None }

let test_oracle_probe_parity () =
  match oracle_probe_on "DegreeParity" with
  | None -> Alcotest.fail "DegreeParity has a synthesis universe"
  | Some (Error msg) -> Alcotest.fail msg
  | Some (Ok ()) -> ()

let test_oracle_probe_unknown () =
  Alcotest.(check bool)
    "no universe -> None" true
    (oracle_probe_on "SinklessOrientation" = None)

let suites =
  [
    ( "synth-sat",
      [
        Alcotest.test_case "pigeonhole 4/3 UNSAT + certify" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "deterministic runs" `Quick test_deterministic;
        Alcotest.test_case "define_and semantics" `Quick test_define_and;
        Alcotest.test_case "simplify forces implication chain" `Quick test_simplify_chain;
        Alcotest.test_case "empty clause" `Quick test_empty_clause_unsat;
        QCheck_alcotest.to_alcotest prop_solve_matches_brute_force;
        QCheck_alcotest.to_alcotest prop_dimacs_round_trip;
        QCheck_alcotest.to_alcotest prop_simplify_matches_naive;
        QCheck_alcotest.to_alcotest prop_incremental_block_models;
        Alcotest.test_case "check_drup rejects bad proofs" `Quick test_check_drup_rejects;
        QCheck_alcotest.to_alcotest prop_drup_matches_reference;
      ] );
    ( "synth-encode",
      [
        QCheck_alcotest.to_alcotest prop_instr_json_round_trip;
        Alcotest.test_case "instr codec rejects malformed input" `Quick
          test_instr_json_rejects;
        Alcotest.test_case "check_template rejects ill-formed slots" `Quick
          test_check_template_rejects;
        Alcotest.test_case "spec lookup aliases" `Quick test_find_aliases;
        Alcotest.test_case "degree parity SAT at volume 1 + recheck" `Quick
          test_degree_parity_sat;
        Alcotest.test_case "degree parity UNSAT at volume 0 (axiom)" `Quick
          test_degree_parity_unsat_axiom;
        Alcotest.test_case "leaf coloring certified UNSAT below adversary bound" `Quick
          test_leaf_unsat_below_bound_certified;
        Alcotest.test_case "oracle probe: degree parity ok" `Quick test_oracle_probe_parity;
        Alcotest.test_case "oracle probe: no universe" `Quick test_oracle_probe_unknown;
      ] );
  ]
