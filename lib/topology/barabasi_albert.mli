(** Barabási–Albert preferential-attachment graphs (Section 6.2).

    Each new node attaches to [m] distinct existing nodes chosen with
    probability proportional to their degree, producing the power-law
    degree distribution of Internet-like topologies. *)

val links : Nstats.Rng.t -> nodes:int -> m:int -> (int * int) list
(** Undirected link list. Requires [nodes > m >= 1]. *)

val generate : Nstats.Rng.t -> nodes:int -> hosts:int -> Testbed.t
(** Connected BA graph ([m = 2] links per new node) whose [hosts]
    least-connected nodes are both beacons and destinations. *)
