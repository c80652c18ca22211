(** Locally checkable labeling problems (paper Definitions 2.4 and 2.6).

    An LCL is a graph problem whose global validity is equivalent to
    validity in every radius-[c] neighborhood for a constant [c].  We
    represent a problem by its per-node local checker; {!check} then
    derives the global verifier by quantifying the checker over all
    nodes, which is exactly the LCL semantics.

    A {!solver} is a probe-model algorithm producing one node's output;
    the executor in {!Vc_model.Probe} accounts its DIST and VOL costs, so
    "the complexity of a problem" (Definition 2.4) is measured by running
    solvers from every node and checking the assembled output with the
    problem's own checker. *)

type ('i, 'o) t = {
  name : string;
  radius : int;
      (** the checkability radius [c]; informational (checkers receive
          the whole graph but must only inspect [N_v(radius)]). *)
  valid_at :
    Vc_graph.Graph.t ->
    input:(Vc_graph.Graph.node -> 'i) ->
    output:(Vc_graph.Graph.node -> 'o) ->
    Vc_graph.Graph.node ->
    (unit, string) result;
      (** Local validity at one node; [Error reason] explains the
          violation. *)
}

type violation = {
  node : Vc_graph.Graph.node;
  reason : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check :
  ('i, 'o) t ->
  Vc_graph.Graph.t ->
  input:(Vc_graph.Graph.node -> 'i) ->
  output:(Vc_graph.Graph.node -> 'o) ->
  (unit, violation list) result
(** Global validity: the local checker holds at every node. *)

val is_valid :
  ('i, 'o) t ->
  Vc_graph.Graph.t ->
  input:(Vc_graph.Graph.node -> 'i) ->
  output:(Vc_graph.Graph.node -> 'o) ->
  bool

val with_name : ('i, 'o) t -> name:string -> ('i, 'o) t
(** The same checker under a different name — one LCL registered once
    per graph family (e.g. 4-colouring on torus grids and on d-regular
    graphs) without duplicating its [valid_at]. *)

(** {1 Solvers} *)

type ('i, 'o) solver = {
  solver_name : string;
  randomized : bool;
      (** randomized solvers require a {!Vc_rng.Randomness.t} at run
          time; deterministic ones must never call [rand_bit]. *)
  solve : 'i Vc_model.Probe.ctx -> 'o;
}

val solver : name:string -> randomized:bool -> ('i Vc_model.Probe.ctx -> 'o) -> ('i, 'o) solver

(** {1 Model relations} *)

val volume_bounds_from_distance : delta:int -> distance:int -> int * int
(** Lemma 2.5: a problem solvable in distance [T] on graphs of maximum
    degree [delta] has volume between [T] and [delta^T + 1] (the returned
    pair, capped at [max_int] on overflow). *)
