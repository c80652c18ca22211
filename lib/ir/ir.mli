(** A defunctionalized probe-program IR.

    Closure solvers re-enter {!Vc_model.Probe} one query at a time;
    nothing outside the running OCaml process can inspect, store, or
    batch them.  This IR reifies the probe {e schedule} as data: a small
    register machine whose only world-facing instruction is [Probe]
    (walk a path of ports and pay for every hop), with branching on
    locally observable facts (degrees, input-label fields, node
    equality), bounded scratch (marks, FIFO queues), and a finite output
    table.  Unbounded output {e computation} (e.g. Cole–Vishkin's color
    arithmetic) lives in the per-program table of pure combinators
    {!spec.fns}, which see the execution's query log but cannot touch
    the world — so every query a program can ever make is visible in its
    code, which is what makes programs wire-shippable ({!program_of_json}
    + {!validate} + the {!step_cap}) and enumerable for synthesis.

    Cost semantics are {!Vc_model.Probe}'s, hop for hop: each [Probe]
    path element is one query (counted before the admit that may abort),
    volume counts distinct visited nodes, distance is the max over
    visited nodes, and the origin is free.  {!Exec} provides a reference
    interpreter that runs through a [Probe.ctx] — so this is true by
    construction — and a batched executor that must (and does, see
    oracle probe [ir]) reproduce it bit for bit. *)

type reg = int
(** Register index in [0 .. n_regs-1].  Registers hold nodes; they start
    out holding the origin, and only ever receive probed or popped
    nodes, so a register always names a {e visited} node — queries only
    from visited nodes holds by construction. *)

type queue = int
(** FIFO queue index in [0 .. n_queues-1]. *)

type field = int
(** Observation-field index in [0 .. obs_arity-1]: programs see node
    inputs only through the {!spec.obs} projection to small ints. *)

type port_sel =
  | P_const of int  (** a literal port number (1-based) *)
  | P_field of field  (** the port stored in an input field of the current node *)

type cond =
  | C_deg_le of reg * int
  | C_deg_eq of reg * int
  | C_deg_mod of reg * int * int  (** [deg mod m = k] *)
  | C_port_ok of reg * port_sel  (** [1 <= port <= degree] — the guard for [Probe] *)
  | C_label_eq of reg * field * int
  | C_field_eq of reg * field * field  (** two fields of the {e same} node *)
  | C_node_eq of reg * reg
  | C_marked of reg
  | C_queue_empty of queue

type instr =
  | Probe of { at : reg; path : port_sel array; dst : reg }
      (** Walk from [at] along [path], one query per hop (port selectors
          are evaluated at the node reached so far, enabling pointer
          chasing); the final node lands in [dst].  An invalid port
          truncates the run. *)
  | Jump of int
  | Branch of { cond : cond; if_true : int; if_false : int }
  | Move of { src : reg; dst : reg }
  | Mark of reg
  | Push of { queue : queue; src : reg }
  | Pop of { queue : queue; dst : reg }  (** empty queue truncates *)
  | Out_const of int  (** terminate with [consts.(k)] *)
  | Out_fn of int  (** terminate with [fns.(k) env] *)
  | Halt  (** voluntary truncation (Remark 3.11) *)

type program = {
  name : string;
  n_regs : int;
  n_queues : int;
  obs_arity : int;
  n_consts : int;
  n_fns : int;
  declared : Vc_model.Probe.budget;
      (** self-declared cost envelope, intersected with the caller's
          budget by both executors ({!effective_budget}) *)
  max_steps : int option;  (** step cap override; see {!step_cap} *)
  code : instr array;
}

(** What an output combinator may see: the origin, [n], the registers,
    the full query log (result of every query, in issue order, repeats
    included), and views of visited nodes.  The accessor closures are
    only valid during the combinator call — they read executor scratch
    that is recycled for the next origin. *)
type 'i env = {
  e_origin : Vc_graph.Graph.node;
  e_n : int;
  e_reg : reg -> Vc_graph.Graph.node;
  e_queries : int;
  e_query : int -> Vc_graph.Graph.node;
  e_id : Vc_graph.Graph.node -> int;
  e_degree : Vc_graph.Graph.node -> int;
  e_input : Vc_graph.Graph.node -> 'i;
}

type ('i, 'o) spec = {
  program : program;
  obs : 'i -> field -> int;  (** pure projection of inputs to observation fields *)
  consts : 'o array;  (** [n_consts] outputs *)
  fns : ('i env -> 'o) array;  (** [n_fns] pure output combinators *)
}

(** {1 Cost model} *)

val step_cap : n:int -> program -> int

val effective_budget : program -> Vc_model.Probe.budget -> Vc_model.Probe.budget
(** Field-wise minimum of the program's declared envelope and the
    caller's budget; what {!Exec.run} and {!Exec.run_batch} enforce. *)

(** {1 Static validation} *)

val validate : program -> (unit, string) result
(** Structural well-formedness: every register, queue, field, output
    index, and branch target in range; ports positive; probe paths
    non-empty; control cannot fall off the end; declared budgets and
    step cap positive.  Validated programs cannot raise from the
    executors — they can only truncate. *)

val validate_spec : ('i, 'o) spec -> (unit, string) result
(** {!validate} plus output-table arity agreement. *)

(** {1 Pretty-printing and JSON} *)

val pp_program : Format.formatter -> program -> unit

val program_to_json : program -> Vc_obs.Json.t

val program_of_json : Vc_obs.Json.t -> (program, string) result
(** Decode and {!validate} (untrusted input is rejected, not run). *)

val instr_to_json : instr -> Vc_obs.Json.t

val instr_of_json : Vc_obs.Json.t -> (instr, string) result
(** Single-instruction codec, for witness reconstruction (synthesis
    decodes one chosen instruction per template slot).  Round-trips
    with {!instr_to_json}; range checks are {!validate}'s job — a
    decoded instruction is structurally an [instr] but not yet known to
    be in range for any particular program. *)

(** {1 Assembler} *)

(** Two-pass assembler over symbolic labels, for hand-compiling solvers
    ({!Library}) and generating random programs ({!Vc_check.Gen}). *)
module Asm : sig
  type label

  type t

  val create : unit -> t

  val label : t -> label
  (** Fresh, not yet placed, label. *)

  val place : t -> label -> unit
  (** Bind a label to the next emitted instruction.  Each label must be
      placed exactly once before {!assemble}. *)

  val probe : t -> at:reg -> path:port_sel array -> dst:reg -> unit

  val jump : t -> label -> unit

  val branch : t -> cond -> if_true:label -> if_false:label -> unit

  val move : t -> src:reg -> dst:reg -> unit

  val mark : t -> reg -> unit

  val push : t -> queue:queue -> src:reg -> unit

  val pop : t -> queue:queue -> dst:reg -> unit

  val out_const : t -> int -> unit

  val out_fn : t -> int -> unit

  val halt : t -> unit

  val assemble :
    t ->
    name:string ->
    n_regs:int ->
    n_queues:int ->
    obs_arity:int ->
    n_consts:int ->
    n_fns:int ->
    ?declared:Vc_model.Probe.budget ->
    ?max_steps:int ->
    unit ->
    program
  (** Resolve labels and {!validate}.
      @raise Invalid_argument on unplaced labels or validation failure. *)
end
