(** CNF encoding of "∃ a well-formed IR program with volume ≤ v and
    radius ≤ r solving the LCL on every instance of a finite family",
    plus the CEGIS loop that grows the family from counterexamples.

    The search space is a {e template}: an array of instruction slots,
    each with a finite menu drawn from the forward-only fragment of
    {!Vc_ir.Ir} (probe, move, forward jump/branch, constant output) —
    the fragment in which every slot executes at most once, so the
    batched-executor semantics unroll into a finite DAG per
    (instance, origin) with no time dimension.  One exactly-one choice
    per slot is shared across all instances; per instance the encoder
    symbolically executes every reachable (pc, registers, visited-set)
    state, forbids every truncation (invalid port, volume above [v],
    distance above [r], voluntary halt), forces an output literal at
    every output leaf, and conjoins the problem's local checker by
    enumerating output assignments over each node's checking ball and
    blocking the invalid ones.  {!Vc_ir.Ir.validate}'s rules hold by
    construction of {!check_template}, so every decoded witness
    validates.

    The CEGIS loop: solve; decode the candidate through the {!Vc_ir.Ir}
    JSON codec (so the wire path is exercised, not just the in-memory
    constructors); run it with {!Vc_exec.Exec.run_batch} from every
    origin of every corpus instance, byte-comparing each result against
    the reference {!Vc_exec.Exec.run}; check the assembled outputs with
    the full LCL checker.  A failing instance joins the encoding and
    the loop repeats; a failure on an already-encoded instance is an
    encoding-divergence bug and reported as [Error], never as a
    verdict. *)

module Graph = Vc_graph.Graph

type template = {
  t_name : string;
  n_regs : int;
  obs_arity : int;
  n_consts : int;
  slots : Vc_ir.Ir.instr array array;
      (** [slots.(s)] is slot [s]'s menu.  Allowed instructions:
          [Probe], [Move], [Jump], [Branch] (targets strictly beyond
          [s]) and [Out_const]; the last slot's menu must be all
          [Out_const]. *)
}

val check_template : template -> (unit, string) result
(** Structural check: non-empty menus, register/field/const/port
    ranges, strictly forward control flow, terminal last slot, no
    instruction outside the fragment. *)

(** A problem together with its certificate corpus, packed so the
    encoder is monomorphic in the instance data. *)
type universe =
  | U : {
      u_name : string;
      lcl : ('i, 'o) Vc_lcl.Lcl.t;
      consts : 'o array;  (** output alphabet; [Out_const k] means [consts.(k)] *)
      obs : 'i -> int -> int;  (** observation projection, arity [obs_arity] *)
      instances : (string * Graph.t * (Graph.node -> 'i)) array;
          (** CEGIS corpus in priority order; the first [seed_instances]
              are encoded up front. *)
    }
      -> universe

type outcome =
  | Synthesized of Vc_ir.Ir.program
  | Unsat_at_budget

type report = {
  outcome : outcome;
  cegis_iters : int;  (** number of [solve] calls *)
  instances_encoded : int;
  sat_stats : Sat.stats;
  n_vars : int;
  n_clauses : int;
  certified : bool option;
      (** [Some true] iff the final UNSAT was DRUP-certified; [None]
          when SAT or when certification was not requested *)
  certify_error : string option;
      (** why the DRUP replay rejected the proof (the failing step, or
          the exhausted budget); [Some _] iff [certified = Some false] *)
  wall_s : float;  (** wall-clock seconds for the whole search *)
}

val recheck : universe -> Vc_ir.Ir.program -> (unit, string) result
(** Independent re-examination of a witness: {!Vc_ir.Ir.validate}, then
    on every corpus instance run it from every origin with both
    executors (byte-compared), demand completion within the declared
    envelope, and run the full LCL checker.  What oracle probe 11 uses
    to distrust {!synthesize}'s own bookkeeping. *)

val synthesize :
  ?seed_instances:int ->
  ?max_cegis:int ->
  ?certify:bool ->
  ?dimacs_out:string ->
  universe ->
  template:template ->
  volume:int ->
  radius:int ->
  (report, string) result
(** Search for a program of the template with volume ≤ [volume] and
    distance ≤ [radius] on every corpus instance.  [volume < 1] or
    [radius < 0] is [Unsat_at_budget] by the model's axioms (the origin
    alone already costs volume 1).  [certify] (default [false]) replays
    the DRUP log on an UNSAT verdict; a rejected replay is still a
    verdict, with the checker's reason in [certify_error].
    [dimacs_out] writes the final CNF for external cross-checking.
    Deterministic.  [Error] on
    malformed templates, oversized instances (> 62 nodes), checker-ball
    enumeration overflow, CEGIS iteration overflow, or encoding
    divergence. *)
