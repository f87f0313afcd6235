(** Locating congested links relative to AS boundaries (Table 3).

    A virtual link is inter-AS when any of its physical member edges
    crosses an AS boundary (the conservative convention: a chain that
    includes a peering hop is an inter-AS chain). *)

type report = {
  inter : int;  (** congested inter-AS links *)
  intra : int;  (** congested intra-AS links *)
}

val inter_fraction : report -> float
(** Fraction of congested links that are inter-AS (0 when none). *)

val vlink_is_inter : Topology.Graph.t -> Topology.Routing.reduced -> int -> bool

val classify :
  graph:Topology.Graph.t ->
  routing:Topology.Routing.reduced ->
  loss_rates:float array ->
  threshold:float ->
  report
(** Counts inferred-congested links ([loss > threshold]) by location.
    [loss_rates] is indexed by columns of the reduced routing matrix. *)
