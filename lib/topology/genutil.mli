(** Internal helpers shared by the topology generators. *)

val connect_components : Nstats.Rng.t -> int -> (int * int) list -> (int * int) list
(** [connect_components rng n links] adds undirected links until the graph
    on [n] nodes is connected: one link between a random node of each
    stranded component and a random node of the main component. Returns
    the augmented link list. *)

val least_degree_nodes : int -> (int * int) list -> int -> int array
(** [least_degree_nodes n links k] is [k] node indices of minimal degree
    (ties broken by id). *)

val unit_square_points : Nstats.Rng.t -> int -> (float * float) array
(** [n] i.i.d. uniform points in the unit square. *)

val euclid : float * float -> float * float -> float

val dedup_links : (int * int) list -> (int * int) list
(** Removes duplicate and self links, normalizing each pair to [(min, max)]. *)

val make_nodes :
  host_ids:int array -> as_of:(int -> int) -> int -> Graph.node array
(** [make_nodes ~host_ids ~as_of n]: [n] nodes; those in [host_ids] are
    hosts, the rest routers; AS id given by [as_of]. *)
