(* CDCL in the MiniSat lineage, deterministic throughout.

   Internal representation: variables are 0-based, a literal is
   [2v + sign] with sign 1 for negation, so [lit lxor 1] negates and
   [lit lsr 1] recovers the variable.  The public API speaks DIMACS
   (1-based, sign by arithmetic sign).

   The clause database holds originals and learned clauses alike; the
   [originals] and [proof] logs keep the separation the DRUP replay of
   {!certify_unsat} needs.  Watches are per-literal growable arrays of
   clause indices; the first two positions of every attached clause are
   its watched literals. *)

type stats = {
  decisions : int;
  conflicts : int;
  propagations : int;
  learned : int;
  max_learned_len : int;
  restarts : int;
}

type t = {
  mutable nvars : int;
  (* per-variable state, sized [cap] *)
  mutable cap : int;
  mutable assign : int array;  (* -1 unassigned, else 0/1 *)
  mutable level : int array;
  mutable reason : int array;  (* clause index, -1 for decisions/facts *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable seen : bool array;
  (* VSIDS order: indexed binary max-heap over variables *)
  mutable heap : int array;
  mutable heap_len : int;
  mutable heap_pos : int array;  (* -1 when not in heap *)
  mutable var_inc : float;
  (* clause database *)
  mutable clauses : int array array;
  mutable n_clauses : int;
  (* watches, indexed by literal (sized 2*cap) *)
  mutable w_data : int array array;
  mutable w_len : int array;
  (* trail *)
  mutable trail : int array;
  mutable trail_len : int;
  mutable lim : int array;
  mutable lim_len : int;
  mutable qhead : int;
  (* verdict state *)
  mutable unsat : bool;
  mutable model : int array;
  mutable have_model : bool;
  (* clauses added since the last attach, reversed *)
  mutable pending : int array list;
  (* certification logs, reversed *)
  mutable originals : int array list;
  mutable proof : int array list;
  (* stats *)
  mutable s_decisions : int;
  mutable s_conflicts : int;
  mutable s_props : int;
  mutable s_learned : int;
  mutable s_maxlen : int;
  mutable s_restarts : int;
}

let create () =
  {
    nvars = 0;
    cap = 0;
    assign = [||];
    level = [||];
    reason = [||];
    activity = [||];
    phase = [||];
    seen = [||];
    heap = [||];
    heap_len = 0;
    heap_pos = [||];
    var_inc = 1.0;
    clauses = [||];
    n_clauses = 0;
    w_data = [||];
    w_len = [||];
    trail = [||];
    trail_len = 0;
    lim = [||];
    lim_len = 0;
    qhead = 0;
    unsat = false;
    model = [||];
    have_model = false;
    pending = [];
    originals = [];
    proof = [];
    s_decisions = 0;
    s_conflicts = 0;
    s_props = 0;
    s_learned = 0;
    s_maxlen = 0;
    s_restarts = 0;
  }

let n_vars t = t.nvars

let stats t =
  {
    decisions = t.s_decisions;
    conflicts = t.s_conflicts;
    propagations = t.s_props;
    learned = t.s_learned;
    max_learned_len = t.s_maxlen;
    restarts = t.s_restarts;
  }

(* --- growable storage ------------------------------------------------------ *)

let grow_int a n d =
  let b = Array.make n d in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bool a n =
  let b = Array.make n false in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a n =
  let b = Array.make n 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_arr a n =
  let b = Array.make n [||] in
  Array.blit a 0 b 0 (Array.length a);
  b

let ensure_cap t n =
  if n > t.cap then begin
    let c = max n (max 16 (2 * t.cap)) in
    t.assign <- grow_int t.assign c (-1);
    t.level <- grow_int t.level c 0;
    t.reason <- grow_int t.reason c (-1);
    t.activity <- grow_float t.activity c;
    t.phase <- grow_bool t.phase c;
    t.seen <- grow_bool t.seen c;
    t.heap <- grow_int t.heap c 0;
    t.heap_pos <- grow_int t.heap_pos c (-1);
    t.trail <- grow_int t.trail c 0;
    t.lim <- grow_int t.lim c 0;
    t.w_data <- grow_arr t.w_data (2 * c);
    t.w_len <- grow_int t.w_len (2 * c) 0;
    t.cap <- c
  end

(* --- VSIDS heap ------------------------------------------------------------ *)

(* Higher activity wins; ties break to the smaller variable index, so
   the decision order — hence the whole run — is deterministic. *)
let heap_less t a b =
  t.activity.(a) > t.activity.(b) || (t.activity.(a) = t.activity.(b) && a < b)

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    let vi = t.heap.(i) and vp = t.heap.(p) in
    if heap_less t vi vp then begin
      t.heap.(i) <- vp;
      t.heap.(p) <- vi;
      t.heap_pos.(vp) <- i;
      t.heap_pos.(vi) <- p;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.heap_len then begin
    let r = l + 1 in
    let c = if r < t.heap_len && heap_less t t.heap.(r) t.heap.(l) then r else l in
    if heap_less t t.heap.(c) t.heap.(i) then begin
      let vi = t.heap.(i) and vc = t.heap.(c) in
      t.heap.(i) <- vc;
      t.heap.(c) <- vi;
      t.heap_pos.(vc) <- i;
      t.heap_pos.(vi) <- c;
      sift_down t c
    end
  end

let heap_insert t v =
  if t.heap_pos.(v) < 0 then begin
    t.heap.(t.heap_len) <- v;
    t.heap_pos.(v) <- t.heap_len;
    t.heap_len <- t.heap_len + 1;
    sift_up t t.heap_pos.(v)
  end

let heap_pop t =
  let v = t.heap.(0) in
  t.heap_len <- t.heap_len - 1;
  t.heap_pos.(v) <- -1;
  if t.heap_len > 0 then begin
    let last = t.heap.(t.heap_len) in
    t.heap.(0) <- last;
    t.heap_pos.(last) <- 0;
    sift_down t 0
  end;
  v

let bump t v =
  t.activity.(v) <- t.activity.(v) +. t.var_inc;
  if t.activity.(v) > 1e100 then begin
    for u = 0 to t.nvars - 1 do
      t.activity.(u) <- t.activity.(u) *. 1e-100
    done;
    t.var_inc <- t.var_inc *. 1e-100
  end;
  if t.heap_pos.(v) >= 0 then sift_up t t.heap_pos.(v)

let decay t = t.var_inc <- t.var_inc /. 0.95

(* --- variables and literals ------------------------------------------------ *)

let new_var t =
  ensure_cap t (t.nvars + 1);
  let v = t.nvars in
  t.nvars <- v + 1;
  heap_insert t v;
  v + 1

(* [-1] unassigned, else the literal's truth value as 0/1. *)
let lit_value t lit =
  let a = t.assign.(lit lsr 1) in
  if a < 0 then -1 else a lxor (lit land 1)

let dimacs_of_lit lit =
  let v = (lit lsr 1) + 1 in
  if lit land 1 = 1 then -v else v

let lit_of_dimacs t l =
  if l = 0 then invalid_arg "Sat: zero literal";
  let v = abs l in
  if v > t.nvars then invalid_arg (Printf.sprintf "Sat: variable %d not allocated" v);
  (2 * (v - 1)) lor (if l < 0 then 1 else 0)

(* --- clause database ------------------------------------------------------- *)

let push_clause t c =
  if t.n_clauses >= Array.length t.clauses then
    t.clauses <- grow_arr t.clauses (max 16 (2 * t.n_clauses));
  let ci = t.n_clauses in
  t.clauses.(ci) <- c;
  t.n_clauses <- ci + 1;
  ci

let watch_add t lit ci =
  let n = t.w_len.(lit) in
  if n >= Array.length t.w_data.(lit) then
    t.w_data.(lit) <- grow_int t.w_data.(lit) (max 4 (2 * n)) 0;
  t.w_data.(lit).(n) <- ci;
  t.w_len.(lit) <- n + 1

let attach t c =
  let ci = push_clause t c in
  watch_add t c.(0) ci;
  watch_add t c.(1) ci;
  ci

(* --- trail ----------------------------------------------------------------- *)

let enqueue t lit reason =
  let v = lit lsr 1 in
  t.assign.(v) <- (lit land 1) lxor 1;
  t.level.(v) <- t.lim_len;
  t.reason.(v) <- reason;
  t.trail.(t.trail_len) <- lit;
  t.trail_len <- t.trail_len + 1

let backtrack t blevel =
  if t.lim_len > blevel then begin
    let bound = t.lim.(blevel) in
    for i = t.trail_len - 1 downto bound do
      let v = t.trail.(i) lsr 1 in
      t.phase.(v) <- t.assign.(v) = 1;
      t.assign.(v) <- -1;
      heap_insert t v
    done;
    t.trail_len <- bound;
    t.qhead <- bound;
    t.lim_len <- blevel
  end

(* --- adding clauses -------------------------------------------------------- *)

(* Normalize to sorted, deduplicated internal literals; [None] for a
   tautology. *)
let normalize t lits =
  let ls = List.sort_uniq compare (List.map (lit_of_dimacs t) lits) in
  let rec taut = function
    | a :: (b :: _ as rest) -> (a lxor 1 = b && a lsr 1 = b lsr 1) || taut rest
    | _ -> false
  in
  if taut ls then None else Some (Array.of_list ls)

let add_clause t lits =
  match normalize t lits with
  | None -> ()
  | Some c ->
      t.originals <- c :: t.originals;
      if Array.length c = 0 then begin
        if not t.unsat then begin
          t.unsat <- true;
          t.proof <- [||] :: t.proof
        end
      end
      else t.pending <- c :: t.pending

(* Attach everything added since the last solve.  Runs at level 0;
   clauses are simplified against the level-0 assignment (sound: the
   dropped literals are level-0 false, the dropped clauses level-0
   true), so watched literals are never false at attach time. *)
let attach_pending t =
  let cs = List.rev t.pending in
  t.pending <- [];
  List.iter
    (fun c ->
      if not t.unsat then begin
        let keep = ref [] in
        let is_true = ref false in
        Array.iter
          (fun l ->
            match lit_value t l with
            | 1 -> is_true := true
            | 0 -> ()
            | _ -> keep := l :: !keep)
          c;
        if not !is_true then
          match List.rev !keep with
          | [] ->
              t.unsat <- true;
              t.proof <- [||] :: t.proof
          | [ l ] -> enqueue t l (-1)
          | l0 :: l1 :: _ as ls ->
              ignore l0;
              ignore l1;
              ignore (attach t (Array.of_list ls))
      end)
    cs

(* --- propagation ----------------------------------------------------------- *)

(* Returns the conflicting clause index, or -1. *)
let propagate t =
  let conflict = ref (-1) in
  while !conflict < 0 && t.qhead < t.trail_len do
    let lit = t.trail.(t.qhead) in
    t.qhead <- t.qhead + 1;
    let false_lit = lit lxor 1 in
    let ws = t.w_data.(false_lit) in
    let n = t.w_len.(false_lit) in
    let j = ref 0 in
    let i = ref 0 in
    while !i < n do
      let ci = ws.(!i) in
      let c = t.clauses.(ci) in
      (* Ensure the false literal sits at position 1. *)
      if c.(0) = false_lit then begin
        c.(0) <- c.(1);
        c.(1) <- false_lit
      end;
      if lit_value t c.(0) = 1 then begin
        ws.(!j) <- ci;
        incr j
      end
      else begin
        (* Look for a replacement watch. *)
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && lit_value t c.(!k) = 0 do
          incr k
        done;
        if !k < len then begin
          c.(1) <- c.(!k);
          c.(!k) <- false_lit;
          watch_add t c.(1) ci
        end
        else begin
          ws.(!j) <- ci;
          incr j;
          if lit_value t c.(0) = 0 then begin
            (* Conflict: keep the rest of the watch list and stop. *)
            conflict := ci;
            incr i;
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr j;
              incr i
            done;
            i := n (* exit *)
          end
          else begin
            enqueue t c.(0) ci;
            t.s_props <- t.s_props + 1
          end
        end
      end;
      if !conflict < 0 then incr i
    done;
    t.w_len.(false_lit) <- !j
  done;
  !conflict

(* --- conflict analysis (first UIP) ----------------------------------------- *)

(* Returns the learned clause (asserting literal first, a literal of the
   backjump level second when the clause is long) and the backjump
   level. *)
let analyze t confl0 =
  let learnt = ref [] in
  let btlevel = ref 0 in
  let pathc = ref 0 in
  let p = ref (-1) in
  let confl = ref confl0 in
  let idx = ref (t.trail_len - 1) in
  let first = ref true in
  let continue = ref true in
  while !continue do
    let c = t.clauses.(!confl) in
    let start = if !first then 0 else 1 in
    for j = start to Array.length c - 1 do
      let q = c.(j) in
      let v = q lsr 1 in
      if (not t.seen.(v)) && t.level.(v) > 0 then begin
        t.seen.(v) <- true;
        bump t v;
        if t.level.(v) >= t.lim_len then incr pathc
        else begin
          learnt := q :: !learnt;
          if t.level.(v) > !btlevel then btlevel := t.level.(v)
        end
      end
    done;
    while not t.seen.(t.trail.(!idx) lsr 1) do
      decr idx
    done;
    p := t.trail.(!idx);
    decr idx;
    let v = !p lsr 1 in
    t.seen.(v) <- false;
    confl := t.reason.(v);
    decr pathc;
    first := false;
    if !pathc = 0 then continue := false
  done;
  let tail = !learnt in
  List.iter (fun q -> t.seen.(q lsr 1) <- false) tail;
  let c = Array.of_list ((!p lxor 1) :: tail) in
  (* Put a literal of the backjump level at position 1 so both watches
     are sound after the backjump. *)
  if Array.length c > 1 then begin
    let k = ref 1 in
    for j = 1 to Array.length c - 1 do
      if t.level.(c.(j) lsr 1) = !btlevel then k := j
    done;
    let tmp = c.(1) in
    c.(1) <- c.(!k);
    c.(!k) <- tmp
  end;
  (c, !btlevel)

(* --- Luby restarts --------------------------------------------------------- *)

(* The reluctant-doubling sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby x0 =
  let size = ref 1 and seq = ref 0 in
  while !size < x0 + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  let x = ref x0 in
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

let restart_base = 64

(* --- solving --------------------------------------------------------------- *)

type verdict = Sat | Unsat

let record_learnt t c =
  t.proof <- c :: t.proof;
  t.s_learned <- t.s_learned + 1;
  if Array.length c > t.s_maxlen then t.s_maxlen <- Array.length c

let solve t =
  backtrack t 0;
  attach_pending t;
  if (not t.unsat) && propagate t >= 0 then begin
    t.unsat <- true;
    t.proof <- [||] :: t.proof
  end;
  if t.unsat then Unsat
  else begin
    let verdict = ref None in
    let restarts = ref 0 in
    let since_restart = ref 0 in
    let limit = ref (restart_base * luby 0) in
    while !verdict = None do
      let confl = propagate t in
      if confl >= 0 then begin
        t.s_conflicts <- t.s_conflicts + 1;
        if t.lim_len = 0 then begin
          t.unsat <- true;
          t.proof <- [||] :: t.proof;
          verdict := Some Unsat
        end
        else begin
          let c, blevel = analyze t confl in
          record_learnt t c;
          backtrack t blevel;
          if Array.length c = 1 then enqueue t c.(0) (-1)
          else begin
            let ci = attach t c in
            enqueue t c.(0) ci
          end;
          decay t;
          incr since_restart;
          if !since_restart >= !limit then begin
            t.s_restarts <- t.s_restarts + 1;
            incr restarts;
            since_restart := 0;
            limit := restart_base * luby !restarts;
            backtrack t 0
          end
        end
      end
      else if t.trail_len = t.nvars then begin
        t.model <- Array.copy t.assign;
        t.have_model <- true;
        backtrack t 0;
        verdict := Some Sat
      end
      else begin
        (* Decide. *)
        let v = ref (-1) in
        while !v < 0 && t.heap_len > 0 do
          let u = heap_pop t in
          if t.assign.(u) < 0 then v := u
        done;
        if !v < 0 then begin
          (* Every remaining variable is assigned; the trail-length test
             above missed only because of duplicates — not possible, but
             close the loop safely. *)
          t.model <- Array.copy t.assign;
          t.have_model <- true;
          backtrack t 0;
          verdict := Some Sat
        end
        else begin
          t.s_decisions <- t.s_decisions + 1;
          t.lim.(t.lim_len) <- t.trail_len;
          t.lim_len <- t.lim_len + 1;
          let lit = (2 * !v) lor if t.phase.(!v) then 0 else 1 in
          enqueue t lit (-1)
        end
      end
    done;
    Option.get !verdict
  end

let value t v =
  if v < 1 || v > t.nvars then invalid_arg "Sat.value: variable out of range";
  if not t.have_model then invalid_arg "Sat.value: no model";
  if v - 1 >= Array.length t.model then invalid_arg "Sat.value: variable newer than model";
  t.model.(v - 1) = 1

let simplify t =
  backtrack t 0;
  attach_pending t;
  if (not t.unsat) && propagate t >= 0 then begin
    t.unsat <- true;
    t.proof <- [||] :: t.proof
  end;
  if t.unsat then `Unsat
  else `Fixed (List.init t.trail_len (fun i -> dimacs_of_lit t.trail.(i)))

(* --- DRUP certification ---------------------------------------------------- *)

(* A forward DRUP checker independent of the solver: it owns copies of
   every clause, its own per-literal watch lists and its own
   epoch-stamped assignment, and shares no mutable state with [t].
   Units and the empty clause live apart from the watched database.
   For each proof step, every variable starts unassigned (a new epoch);
   the negation of the step and every unit are asserted and propagated
   with two watched literals until a conflict or a fixpoint.  Starting
   each check from the empty assignment keeps any two literals of a
   clause valid watches between checks, so watches move lazily and are
   never rebuilt.  Work is counted in watch visits plus literal scans
   against [budget]. *)

type drup = {
  budget : int;
  mutable work : int;
  mutable db : int array array;  (* watched clauses, length >= 2 *)
  mutable db_len : int;
  dw_data : int array array;  (* per literal: clause indices watching it *)
  dw_len : int array;
  mutable units : int array;
  mutable n_units : int;
  mutable has_empty : bool;
  stamp : int array;  (* per variable: assigned iff [stamp = epoch] *)
  va : int array;
  mutable epoch : int;
  dtrail : int array;
  mutable dtrail_len : int;
  mark : int array;  (* per literal, for clause normalization *)
  mutable mark_epoch : int;
}

exception Drup_conflict
exception Drup_budget
exception Drup_bad_literal of string

let drup_tick d n =
  d.work <- d.work + n;
  if d.work > d.budget then raise Drup_budget

let drup_value d l =
  let v = l lsr 1 in
  if d.stamp.(v) <> d.epoch then -1 else d.va.(v) lxor (l land 1)

let drup_assign d l =
  match drup_value d l with
  | 1 -> ()
  | 0 -> raise Drup_conflict
  | _ ->
      let v = l lsr 1 in
      d.stamp.(v) <- d.epoch;
      d.va.(v) <- (l land 1) lxor 1;
      d.dtrail.(d.dtrail_len) <- l;
      d.dtrail_len <- d.dtrail_len + 1

let drup_watch d lit ci =
  let n = d.dw_len.(lit) in
  if n >= Array.length d.dw_data.(lit) then
    d.dw_data.(lit) <- grow_int d.dw_data.(lit) (max 4 (2 * n)) 0;
  d.dw_data.(lit).(n) <- ci;
  d.dw_len.(lit) <- n + 1

(* A fresh internal-literal copy of a DIMACS clause with duplicates
   merged; [None] for a tautology.  Rejects out-of-range literals. *)
let drup_normalize d ~nvars c =
  d.mark_epoch <- d.mark_epoch + 1;
  let out = Array.make (Array.length c) 0 in
  let n = ref 0 in
  let taut = ref false in
  Array.iter
    (fun l ->
      if l = 0 || abs l > nvars then
        raise
          (Drup_bad_literal (Printf.sprintf "literal %d out of range (nvars = %d)" l nvars));
      let li = (2 * (abs l - 1)) lor if l < 0 then 1 else 0 in
      if d.mark.(li lxor 1) = d.mark_epoch then taut := true
      else if d.mark.(li) <> d.mark_epoch then begin
        d.mark.(li) <- d.mark_epoch;
        out.(!n) <- li;
        incr n
      end)
    c;
  if !taut then None else Some (Array.sub out 0 !n)

let drup_add d c =
  match Array.length c with
  | 0 -> d.has_empty <- true
  | 1 ->
      if d.n_units >= Array.length d.units then
        d.units <- grow_int d.units (max 16 (2 * d.n_units)) 0;
      d.units.(d.n_units) <- c.(0);
      d.n_units <- d.n_units + 1
  | _ ->
      if d.db_len >= Array.length d.db then d.db <- grow_arr d.db (max 16 (2 * d.db_len));
      d.db.(d.db_len) <- c;
      drup_watch d c.(0) d.db_len;
      drup_watch d c.(1) d.db_len;
      d.db_len <- d.db_len + 1

(* Propagate the falsification of [fl] through its watch list. *)
let drup_visit d fl =
  let ws = d.dw_data.(fl) in
  let n = d.dw_len.(fl) in
  let i = ref 0 and j = ref 0 in
  try
    while !i < n do
      let ci = ws.(!i) in
      incr i;
      drup_tick d 1;
      let c = d.db.(ci) in
      if c.(0) = fl then begin
        c.(0) <- c.(1);
        c.(1) <- fl
      end;
      if drup_value d c.(0) = 1 then begin
        ws.(!j) <- ci;
        incr j
      end
      else begin
        let len = Array.length c in
        let k = ref 2 in
        while !k < len && drup_value d c.(!k) = 0 do
          incr k
        done;
        drup_tick d (!k - 1);
        if !k < len then begin
          c.(1) <- c.(!k);
          c.(!k) <- fl;
          drup_watch d c.(1) ci
        end
        else begin
          ws.(!j) <- ci;
          incr j;
          drup_assign d c.(0)
        end
      end
    done;
    d.dw_len.(fl) <- !j
  with Drup_conflict ->
    (* keep the unvisited tail of the watch list *)
    while !i < n do
      ws.(!j) <- ws.(!i);
      incr i;
      incr j
    done;
    d.dw_len.(fl) <- !j;
    raise Drup_conflict

(* Is [lemma] implied by the database under unit propagation? *)
let drup_rup d lemma =
  d.epoch <- d.epoch + 1;
  d.dtrail_len <- 0;
  try
    if d.has_empty then raise Drup_conflict;
    Array.iter (fun l -> drup_assign d (l lxor 1)) lemma;
    drup_tick d d.n_units;
    for i = 0 to d.n_units - 1 do
      drup_assign d d.units.(i)
    done;
    let qhead = ref 0 in
    while !qhead < d.dtrail_len do
      let l = d.dtrail.(!qhead) in
      incr qhead;
      drup_visit d (l lxor 1)
    done;
    false
  with Drup_conflict -> true

let check_drup ?(budget = 200_000_000) ~nvars ~originals proof =
  let nv = max 1 nvars in
  let d =
    {
      budget;
      work = 0;
      db = [||];
      db_len = 0;
      dw_data = Array.make (2 * nv) [||];
      dw_len = Array.make (2 * nv) 0;
      units = [||];
      n_units = 0;
      has_empty = false;
      stamp = Array.make nv 0;
      va = Array.make nv 0;
      epoch = 0;
      dtrail = Array.make nv 0;
      dtrail_len = 0;
      mark = Array.make (2 * nv) 0;
      mark_epoch = 0;
    }
  in
  let n_steps = List.length proof in
  let step = ref 0 in
  let rec go = function
    | [] -> Error "proof log is empty"
    | [ last ] ->
        if Array.length last <> 0 then Error "proof does not end with the empty clause"
        else if drup_rup d [||] then Ok ()
        else Error "final conflict is not implied by unit propagation"
    | c :: rest -> (
        match drup_normalize d ~nvars c with
        | None ->
            (* a tautology is RUP and adds nothing *)
            incr step;
            go rest
        | Some c ->
            if drup_rup d c then begin
              drup_add d c;
              incr step;
              go rest
            end
            else Error (Printf.sprintf "proof step %d of %d is not RUP" !step n_steps))
  in
  match
    List.iter (fun c -> Option.iter (drup_add d) (drup_normalize d ~nvars c)) originals;
    go proof
  with
  | r -> r
  | exception Drup_bad_literal msg -> Error msg
  | exception Drup_budget ->
      Error
        (Printf.sprintf "budget of %d propagation steps exceeded at proof step %d of %d"
           budget !step n_steps)

let drup_log t =
  let dimacs c = Array.map dimacs_of_lit c in
  (List.rev_map dimacs t.originals, List.rev_map dimacs t.proof)

let certify_unsat ?budget t =
  if not t.unsat then Error "certify_unsat: last verdict was not UNSAT"
  else
    let originals, proof = drup_log t in
    Result.map_error
      (fun e -> "certify_unsat: " ^ e)
      (check_drup ?budget ~nvars:t.nvars ~originals proof)
