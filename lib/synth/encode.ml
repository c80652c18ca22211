module Graph = Vc_graph.Graph
module Ir = Vc_ir.Ir
module Exec = Vc_ir.Exec
module Lcl = Vc_lcl.Lcl

type template = {
  t_name : string;
  n_regs : int;
  obs_arity : int;
  n_consts : int;
  slots : Ir.instr array array;
}

type universe =
  | U : {
      u_name : string;
      lcl : ('i, 'o) Lcl.t;
      consts : 'o array;
      obs : 'i -> int -> int;
      instances : (string * Graph.t * (Graph.node -> 'i)) array;
    }
      -> universe

type outcome = Synthesized of Ir.program | Unsat_at_budget

type report = {
  outcome : outcome;
  cegis_iters : int;
  instances_encoded : int;
  sat_stats : Sat.stats;
  n_vars : int;
  n_clauses : int;
  certified : bool option;
  certify_error : string option;
  wall_s : float;
}

(* --- template checking ----------------------------------------------------- *)

let check_template t =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let len = Array.length t.slots in
  if len = 0 then err "template %s: no slots" t.t_name
  else if t.n_regs < 1 then err "template %s: n_regs < 1" t.t_name
  else if t.n_consts < 1 then err "template %s: n_consts < 1" t.t_name
  else if t.obs_arity < 0 then err "template %s: negative obs_arity" t.t_name
  else begin
    let problem = ref None in
    let fail s fmt =
      Format.kasprintf
        (fun m -> if !problem = None then problem := Some (Printf.sprintf "slot %d: %s" s m))
        fmt
    in
    let reg s r = if r < 0 || r >= t.n_regs then fail s "register %d out of range" r in
    let field s f = if f < 0 || f >= t.obs_arity then fail s "field %d out of range" f in
    let port s = function
      | Ir.P_const c -> if c < 1 then fail s "port constant %d < 1" c
      | Ir.P_field f -> field s f
    in
    let target s tgt =
      if tgt <= s || tgt >= len then fail s "target %d not strictly forward (len %d)" tgt len
    in
    let cond s = function
      | Ir.C_deg_le (r, _) | Ir.C_deg_eq (r, _) -> reg s r
      | Ir.C_deg_mod (r, m, _) ->
          reg s r;
          if m < 1 then fail s "modulus %d < 1" m
      | Ir.C_port_ok (r, sel) ->
          reg s r;
          port s sel
      | Ir.C_label_eq (r, f, _) ->
          reg s r;
          field s f
      | Ir.C_field_eq (r, f1, f2) ->
          reg s r;
          field s f1;
          field s f2
      | Ir.C_node_eq (r1, r2) ->
          reg s r1;
          reg s r2
      | Ir.C_marked _ | Ir.C_queue_empty _ -> fail s "marks/queues outside the fragment"
    in
    Array.iteri
      (fun s menu ->
        if Array.length menu = 0 then fail s "empty menu";
        Array.iter
          (fun instr ->
            match instr with
            | Ir.Probe { at; path; dst } ->
                reg s at;
                reg s dst;
                if Array.length path = 0 then fail s "empty probe path";
                Array.iter (port s) path;
                if s = len - 1 then fail s "probe in terminal slot"
            | Ir.Move { src; dst } ->
                reg s src;
                reg s dst;
                if s = len - 1 then fail s "move in terminal slot"
            | Ir.Jump tgt -> target s tgt
            | Ir.Branch { cond = c; if_true; if_false } ->
                cond s c;
                target s if_true;
                target s if_false
            | Ir.Out_const k ->
                if k < 0 || k >= t.n_consts then fail s "output %d out of range" k
            | Ir.Mark _ | Ir.Push _ | Ir.Pop _ | Ir.Out_fn _ | Ir.Halt ->
                fail s "instruction outside the fragment")
          menu)
      t.slots;
    (* terminal slot: only outputs, so control cannot fall off the end *)
    Array.iter
      (function
        | Ir.Out_const _ -> ()
        | _ -> if !problem = None then problem := Some "terminal slot has a non-output")
      t.slots.(len - 1);
    match !problem with
    | Some m -> err "template %s: %s" t.t_name m
    | None -> Ok ()
  end

(* --- symbolic execution of one menu entry ---------------------------------- *)

(* A state of the forward-only machine on a concrete instance: program
   counter, register valuation, visited set as a bitmask (instances are
   capped at 62 nodes).  Volume is the popcount of the mask. *)
type state = { pc : int; regs : int array; mask : int }

type step = Next of state | Out of int | Trunc

let popcount m =
  let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
  go m 0

let exec_instr ~g ~obs ~dist ~volume ~radius st instr =
  let deg v = Graph.degree g v in
  let port_at v = function Ir.P_const c -> c | Ir.P_field f -> obs v f in
  let eval_cond = function
    | Ir.C_deg_le (r, k) -> deg st.regs.(r) <= k
    | Ir.C_deg_eq (r, k) -> deg st.regs.(r) = k
    | Ir.C_deg_mod (r, m, k) -> deg st.regs.(r) mod m = k
    | Ir.C_port_ok (r, sel) ->
        let v = st.regs.(r) in
        let pt = port_at v sel in
        pt >= 1 && pt <= deg v
    | Ir.C_label_eq (r, f, k) -> obs st.regs.(r) f = k
    | Ir.C_field_eq (r, f1, f2) -> obs st.regs.(r) f1 = obs st.regs.(r) f2
    | Ir.C_node_eq (r1, r2) -> st.regs.(r1) = st.regs.(r2)
    | Ir.C_marked _ | Ir.C_queue_empty _ -> assert false
  in
  match instr with
  | Ir.Out_const k -> Out k
  | Ir.Jump t -> Next { st with pc = t }
  | Ir.Branch { cond; if_true; if_false } ->
      Next { st with pc = (if eval_cond cond then if_true else if_false) }
  | Ir.Move { src; dst } ->
      let regs = Array.copy st.regs in
      regs.(dst) <- regs.(src);
      Next { pc = st.pc + 1; regs; mask = st.mask }
  | Ir.Probe { at; path; dst } -> (
      (* Mirrors Exec hop for hop: port validity first, then the admit
         with its volume-then-distance truncation order. *)
      let exception T in
      try
        let cur = ref st.regs.(at) in
        let mask = ref st.mask in
        Array.iter
          (fun sel ->
            let v = !cur in
            let pt = port_at v sel in
            if pt < 1 || pt > deg v then raise_notrace T;
            let u = Graph.neighbor g v pt in
            if !mask land (1 lsl u) = 0 then begin
              if popcount !mask >= volume then raise_notrace T;
              if dist.(u) > radius then raise_notrace T;
              mask := !mask lor (1 lsl u)
            end;
            cur := u)
          path;
        let regs = Array.copy st.regs in
        regs.(dst) <- !cur;
        Next { pc = st.pc + 1; regs; mask = !mask }
      with T -> Trunc)
  | Ir.Mark _ | Ir.Push _ | Ir.Pop _ | Ir.Out_fn _ | Ir.Halt -> assert false

(* --- per-instance encoding ------------------------------------------------- *)

let bfs_dist g origin =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let q = Queue.create () in
  dist.(origin) <- 0;
  Queue.push origin q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    Array.iter
      (fun u ->
        if dist.(u) = max_int then begin
          dist.(u) <- dist.(v) + 1;
          Queue.push u q
        end)
      (Graph.neighbors g v)
  done;
  dist

let ball_enum_cap = 65536

(* Encode one instance: output variables per node, the symbolic
   execution DAG per origin, and the checker's blocking clauses. *)
let encode_instance (type i o) cnf ~ch ~(template : template) ~volume ~radius
    ~(lcl : (i, o) Lcl.t) ~(consts : o array) ~(obs : i -> int -> int) (g : Graph.t)
    (input : Graph.node -> i) =
  let n = Graph.n g in
  if n > 62 then Error (Printf.sprintf "instance with %d nodes exceeds the 62-node cap" n)
  else begin
    let nc = template.n_consts in
    (* y.(u).(k): node u outputs consts.(k) *)
    let y = Array.init n (fun _ -> Array.init nc (fun _ -> Cnf.fresh cnf)) in
    Array.iter (fun row -> Cnf.exactly_one cnf (Array.to_list row)) y;
    let obs_node v f = obs (input v) f in
    (* the execution DAG, one per origin *)
    for origin = 0 to n - 1 do
      let dist = bfs_dist g origin in
      let tbl = Hashtbl.create 64 in
      let work = Queue.create () in
      let var_of st =
        let key = (st.pc, Array.to_list st.regs, st.mask) in
        match Hashtbl.find_opt tbl key with
        | Some v -> v
        | None ->
            let v = Cnf.fresh cnf in
            Hashtbl.add tbl key v;
            Queue.push (st, v) work;
            v
      in
      let root =
        { pc = 0; regs = Array.make template.n_regs origin; mask = 1 lsl origin }
      in
      Cnf.add cnf [ var_of root ];
      while not (Queue.is_empty work) do
        let st, av = Queue.pop work in
        Array.iteri
          (fun m instr ->
            let choice = ch.(st.pc).(m) in
            match exec_instr ~g ~obs:obs_node ~dist ~volume ~radius st instr with
            | Trunc -> Cnf.add cnf [ -av; -choice ]
            | Out k -> Cnf.add cnf [ -av; -choice; y.(origin).(k) ]
            | Next st' -> Cnf.add cnf [ -av; -choice; var_of st' ])
          template.slots.(st.pc)
      done
    done;
    (* checker: block every invalid output assignment of each node's
       checking ball *)
    let err = ref None in
    for u = 0 to n - 1 do
      if !err = None then begin
        let du = bfs_dist g u in
        let ball =
          List.filter (fun v -> du.(v) <= lcl.Lcl.radius) (List.init n Fun.id)
        in
        let b = List.length ball in
        let combos =
          let rec pow acc i = if i = 0 then acc else pow (acc * nc) (i - 1) in
          pow 1 b
        in
        if combos > ball_enum_cap then
          err :=
            Some
              (Printf.sprintf "checker ball of node %d needs %d combinations (cap %d)" u
                 combos ball_enum_cap)
        else begin
          let ball = Array.of_list ball in
          let assign = Array.make n 0 in
          for c = 0 to combos - 1 do
            let x = ref c in
            Array.iter
              (fun v ->
                assign.(v) <- !x mod nc;
                x := !x / nc)
              ball;
            let output v = consts.(assign.(v)) in
            match lcl.Lcl.valid_at g ~input ~output u with
            | Ok () -> ()
            | Error _ ->
                Cnf.add cnf
                  (Array.to_list (Array.map (fun v -> -y.(v).(assign.(v))) ball))
          done
        end
      end
    done;
    match !err with Some e -> Error e | None -> Ok ()
  end

(* --- decoding and counterexample checking ---------------------------------- *)

let decode_program cnf ~ch ~(template : template) ~volume ~radius =
  (* Reconstruct each chosen instruction through the JSON codec, so the
     wire path is part of every CEGIS iteration. *)
  let chosen s =
    let menu = template.slots.(s) in
    let rec find m =
      if m >= Array.length menu then Error (Printf.sprintf "slot %d: no choice set" s)
      else if Cnf.value cnf ch.(s).(m) then
        Ir.instr_of_json (Ir.instr_to_json menu.(m))
      else find (m + 1)
    in
    find 0
  in
  let rec all s acc =
    if s >= Array.length template.slots then Ok (List.rev acc)
    else match chosen s with Error e -> Error e | Ok i -> all (s + 1) (i :: acc)
  in
  match all 0 [] with
  | Error e -> Error ("decode: " ^ e)
  | Ok code ->
      let program =
        {
          Ir.name = template.t_name;
          n_regs = template.n_regs;
          n_queues = 0;
          obs_arity = template.obs_arity;
          n_consts = template.n_consts;
          n_fns = 0;
          declared =
            {
              Vc_model.Probe.max_volume = Some volume;
              max_distance = Some radius;
            };
          max_steps = None;
          code = Array.of_list code;
        }
      in
      (match Ir.validate program with
      | Ok () -> Ok program
      | Error e -> Error ("decoded witness fails Ir.validate: " ^ e))

(* Run the candidate on one instance from every origin: reference and
   batched executors must agree byte for byte, every run must complete
   within the declared envelope, and the assembled outputs must satisfy
   the checker.  [Ok true] = instance passed. *)
let check_candidate (type i o) (spec : (i, o) Ir.spec) ~(lcl : (i, o) Lcl.t)
    (g : Graph.t) (input : Graph.node -> i) =
  let n = Graph.n g in
  let origins = Array.init n Fun.id in
  let batched = Exec.run_batch spec ~graph:g ~input ~origins in
  let world = Vc_model.World.of_graph g ~input in
  let mismatch = ref None in
  Array.iteri
    (fun i origin ->
      if !mismatch = None then begin
        let reference = Exec.run spec ~world ~origin in
        if compare reference batched.(i) <> 0 then
          mismatch := Some (Printf.sprintf "origin %d: run vs run_batch diverge" origin)
      end)
    origins;
  match !mismatch with
  | Some e -> Error e
  | None ->
      let all_output =
        Array.for_all
          (fun (r : o Vc_model.Probe.result) -> (not r.aborted) && r.output <> None)
          batched
      in
      if not all_output then Ok false
      else begin
        let out = Array.map (fun (r : o Vc_model.Probe.result) -> Option.get r.output) batched in
        Ok (Lcl.is_valid lcl g ~input ~output:(fun v -> out.(v)))
      end

let recheck (U u) program =
  match Ir.validate program with
  | Error e -> Error ("witness fails Ir.validate: " ^ e)
  | Ok () ->
      let spec = { Ir.program; obs = u.obs; consts = u.consts; fns = [||] } in
      Array.fold_left
        (fun acc (label, g, input) ->
          match acc with
          | Error _ -> acc
          | Ok () -> (
              match check_candidate spec ~lcl:u.lcl g input with
              | Error e -> Error (Printf.sprintf "instance %s: %s" label e)
              | Ok false -> Error (Printf.sprintf "witness fails instance %s" label)
              | Ok true -> Ok ()))
        (Ok ()) u.instances

(* --- the CEGIS loop -------------------------------------------------------- *)

let synthesize ?(seed_instances = 2) ?(max_cegis = 32) ?(certify = false) ?dimacs_out
    (U u) ~template ~volume ~radius =
  let t0 = Unix.gettimeofday () in
  match check_template template with
  | Error e -> Error e
  | Ok () ->
      let cnf = Cnf.create () in
      let finish outcome ~iters ~encoded ~certification =
        Option.iter (Cnf.write_dimacs cnf) dimacs_out;
        Ok
          {
            outcome;
            cegis_iters = iters;
            instances_encoded = encoded;
            sat_stats = Cnf.stats cnf;
            n_vars = Cnf.n_vars cnf;
            n_clauses = Cnf.n_clauses cnf;
            certified = Option.map Result.is_ok certification;
            certify_error =
              (match certification with Some (Error e) -> Some e | _ -> None);
            wall_s = Unix.gettimeofday () -. t0;
          }
      in
      if volume < 1 || radius < 0 then
        (* The origin is always visited: VOL >= 1 is an axiom of the
           model, not something the executor's budget can catch (an
           origin-only program never admits). *)
        finish Unsat_at_budget ~iters:0 ~encoded:0 ~certification:None
      else begin
        let ch =
          Array.map
            (fun menu -> Array.map (fun _ -> Cnf.fresh cnf) menu)
            template.slots
        in
        Array.iter (fun row -> Cnf.exactly_one cnf (Array.to_list row)) ch;
        let n_inst = Array.length u.instances in
        if n_inst = 0 then Error "empty instance corpus"
        else begin
          let encoded = Array.make n_inst false in
          let encode_idx i =
            let _, g, input = u.instances.(i) in
            encoded.(i) <- true;
            encode_instance cnf ~ch ~template ~volume ~radius ~lcl:u.lcl
              ~consts:u.consts ~obs:u.obs g input
          in
          let rec seed i =
            if i >= min seed_instances n_inst then Ok ()
            else match encode_idx i with Error e -> Error e | Ok () -> seed (i + 1)
          in
          match seed 0 with
          | Error e -> Error e
          | Ok () ->
              let rec loop iters =
                if iters >= max_cegis then
                  Error (Printf.sprintf "CEGIS did not converge in %d iterations" max_cegis)
                else
                  match Cnf.solve cnf with
                  | Sat -> (
                      match decode_program cnf ~ch ~template ~volume ~radius with
                      | Error e -> Error e
                      | Ok program -> (
                          let spec =
                            { Ir.program; obs = u.obs; consts = u.consts; fns = [||] }
                          in
                          let failing = ref None in
                          let fatal = ref None in
                          Array.iteri
                            (fun i (label, g, input) ->
                              if !failing = None && !fatal = None then
                                match check_candidate spec ~lcl:u.lcl g input with
                                | Error e ->
                                    fatal :=
                                      Some (Printf.sprintf "instance %s: %s" label e)
                                | Ok true -> ()
                                | Ok false ->
                                    if encoded.(i) then
                                      fatal :=
                                        Some
                                          (Printf.sprintf
                                             "encoding divergence: witness fails \
                                              already-encoded instance %s"
                                             label)
                                    else failing := Some i)
                            u.instances;
                          match (!fatal, !failing) with
                          | Some e, _ -> Error e
                          | None, None ->
                              finish (Synthesized program) ~iters:(iters + 1)
                                ~encoded:
                                  (Array.fold_left
                                     (fun acc b -> if b then acc + 1 else acc)
                                     0 encoded)
                                ~certification:None
                          | None, Some i -> (
                              match encode_idx i with
                              | Error e -> Error e
                              | Ok () -> loop (iters + 1))))
                  | Unsat ->
                      let certification =
                        if certify then Some (Cnf.certify_unsat cnf) else None
                      in
                      finish Unsat_at_budget ~iters:(iters + 1)
                        ~encoded:
                          (Array.fold_left
                             (fun acc b -> if b then acc + 1 else acc)
                             0 encoded)
                        ~certification
              in
              loop 0
        end
      end
