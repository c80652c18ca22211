(** Conformance run results: aggregation, verdicts, human and JSON
    rendering.

    A report is pure data — {!Oracle} fills it in, the [volcomp check]
    CLI renders it.  The JSON shape mirrors [volcomp bench --json]: one
    top-level object with the run parameters and one entry per problem,
    so dashboards can ingest both with the same tooling. *)

type solver_agg = {
  s_name : string;
  s_randomized : bool;
  s_trials : int;  (** instances this solver ran on *)
  s_valid : int;  (** instances on which its output passed the checker *)
  s_max_volume : int;
  s_max_distance : int;
  s_max_rand_bits : int;
}

type kind_agg = {
  k_kind : string;  (** mutation kind, e.g. ["relabel-node"] *)
  k_total : int;
  k_rejected : int;
  k_out_of_radius : int;
      (** rejections with a violation outside the checkability radius of
          the mutation site — always a conformance failure *)
}

type problem_report = {
  p_name : string;
  p_radius : int;
  p_instances : int;
  p_solvers : solver_agg list;
  p_verdicts : (string * bool option) list;
      (** one verdict per {!Oracle.probe} of the run, in list order:
          [Some true] passed on every trial it applied to, [Some false]
          failed on at least one (each failure is in [p_failures]),
          [None] skipped by the selection or applicable to no trial —
          never a vacuous [Some true] *)
  p_mutations : kind_agg list;
  p_probes_skipped : string list;
      (** probes and data phases excluded by {!Oracle.run}'s [?only]
          selection *)
  p_failures : string list;
      (** human-readable conformance failures; empty means conformant *)
}

type t = {
  seed : int64;
  count : int;
  domains : int;
  quick : bool;
  problems : problem_report list;
}

val mutations_rejected : problem_report -> int

val ok : t -> bool

val pp : Format.formatter -> t -> unit
(** Human summary: one block per problem plus a final verdict line. *)

val to_json : t -> Vc_obs.Json.t
