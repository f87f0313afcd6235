(** Shortest-path routing and reduced routing matrices.

    This implements Section 3.1 of the paper: paths are computed per
    beacon with deterministic shortest-path routing (so all paths from one
    beacon form a tree, satisfying T.2 within a beacon), links never
    traversed by any path are dropped, and "alias" links that no
    end-to-end measurement can tell apart — links traversed by exactly the
    same set of paths — are grouped into virtual links. The result is the
    reduced routing matrix [R]: all columns distinct and nonzero. *)

type reduced = {
  matrix : Linalg.Sparse.t;  (** [n_p × n_c], row = path, column = virtual link *)
  paths : Path.t array;  (** row [i] is [paths.(i)] *)
  vlinks : int array array;  (** column [j] groups these physical edge ids *)
  edge_vlink : int array;  (** physical edge id -> column, or -1 if uncovered *)
}

val shortest_path : Graph.t -> src:int -> dst:int -> Path.t option
(** BFS shortest path with deterministic tie-breaking (smallest next-hop
    node id). [None] when [dst] is unreachable. *)

val shortest_path_weighted :
  Graph.t -> weight:(int -> float) -> src:int -> dst:int -> Path.t option
(** Dijkstra under per-edge weights (an IGP-metric routing model). Ties
    are broken towards the lexicographically smaller predecessor node, so
    the result is deterministic and the per-source route set is a tree.
    Raises [Invalid_argument] on a negative weight. *)

val paths_between_weighted :
  Graph.t ->
  weight:(int -> float) ->
  beacons:int array ->
  destinations:int array ->
  Path.t array
(** Weighted counterpart of {!paths_between}. *)

val paths_between :
  Graph.t -> beacons:int array -> destinations:int array -> Path.t array
(** All shortest paths from each beacon to each destination (skipping the
    beacon itself and unreachable destinations), beacon-major order. *)

val reduce : Graph.t -> Path.t array -> reduced
(** Builds the reduced routing matrix from a set of paths: drops uncovered
    links and groups identical columns into virtual links. Raises
    [Invalid_argument] on an empty path set. *)

val build :
  Graph.t -> beacons:int array -> destinations:int array -> reduced
(** [paths_between] followed by {!reduce}. *)

val vlink_loss_rate : reduced -> link_loss:(int -> float) -> int -> float
(** Loss rate of virtual link [j] given per-physical-edge loss rates:
    complement of the product of member transmission rates. *)
