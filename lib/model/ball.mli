(** Ball gathering: simulating distance-bounded (LOCAL) algorithms in the
    probe model (paper Remark 2.3 and Lemma 2.5).

    A LOCAL algorithm with round complexity [T] is a function of the
    radius-[T] neighborhood [N_v(T)].  In the probe model, that
    neighborhood is gathered by a BFS that queries every port of every
    node it reaches — paying volume at most [Δ^T + 1] — after which the
    output can be computed offline from the explored view.  These helpers
    implement that simulation and give algorithms structured access to
    the explored region. *)

val gather : 'i Probe.ctx -> radius:int -> (Vc_graph.Graph.node * int) list
(** [gather ctx ~radius] explores the ball of the given radius around the
    origin by querying all ports in BFS order.  Returns the visited nodes
    with their BFS depth, origin first.  Radii are measured in the
    explored graph, which for balls around the origin coincides with true
    graph distance. *)

val adjacency :
  'i Probe.ctx -> Vc_graph.Graph.node -> (int * Vc_graph.Graph.node) list
(** [(port, neighbor)] pairs already resolved at a visited node (free:
    consults the execution history only). *)
