(** The mutation fuzzer's core: apply a seeded perturbation to a valid
    (input, output) pair and verify that the problem's checker behaves
    like an LCL checker should.

    A checker is only trustworthy if it {e rejects} invalid outputs, and
    nothing in the ordinary test suites exercises that direction
    adversarially.  Given a mutation at a site [v], two things must hold
    of [Lcl.check]:

    - if the mutated labeling is invalid, the checker rejects it;
    - every reported violation is anchored at a node within the
      problem's checkability radius of [v] — a local checker at [u] only
      inspects [N_u(radius)], so a mutation at [v] can only create
      violations at nodes within distance [radius] of [v].  (The starting
      output is globally valid, so there are no pre-existing violations
      to confuse the account.)

    Acceptance of a mutant is {e not} a failure by itself: LCLs admit
    many valid outputs and a perturbation can land on another one.  The
    oracle instead requires that, per problem, at least one seeded
    mutant is rejected — see {!Oracle}. *)

module Graph = Vc_graph.Graph

type ('i, 'o) t = {
  site : Graph.node;  (** where the perturbation was applied *)
  input : (Graph.node -> 'i) option;
      (** [Some f] when the mutation perturbs the input labeling
          ("break one tree-label constraint"); [None] leaves it as-is *)
  output : Graph.node -> 'o;  (** the perturbed output labeling *)
}

type outcome = {
  kind : string;  (** mutation kind, e.g. ["relabel-node"] *)
  site : Graph.node;  (** [-1] when the reference output could not be built *)
  rejected : bool;
  in_radius : bool;
      (** all violations lie within the checkability radius of [site];
          vacuously true when the mutant was accepted *)
  detail : string;  (** first violation (or failure reason), for logs *)
}

val check :
  problem:('i, 'o) Vc_lcl.Lcl.t ->
  graph:Graph.t ->
  input:(Graph.node -> 'i) ->
  kind:string ->
  ('i, 'o) t ->
  outcome
(** Run the checker on the mutated labeling and classify the result.
    [input] is the unmutated input, used when [t.input] is [None]. *)

val reference_failure : msg:string -> outcome
(** The outcome recorded when the reference solver failed to produce a
    valid output to mutate (a conformance failure in its own right;
    the oracle reports it). *)
