(** End-to-end paths through a graph.

    A path records both its node sequence and its edge-id sequence; the
    edge ids are what the routing matrix is built from. *)

type t = { src : int; dst : int; nodes : int array; edges : int array }

val make : graph:Graph.t -> nodes:int array -> t
(** Builds a path from a node sequence, looking up each hop's edge. Raises
    [Invalid_argument] if a hop is not an edge of the graph or the sequence
    has fewer than two nodes. *)

val length : t -> int
(** Number of edges (hops). *)

val mem_edge : t -> int -> bool

val equal : t -> t -> bool
