(** Directed network graphs.

    Nodes are routers or end-hosts, carry an AS identifier (used by the
    inter-/intra-AS analysis of Table 3), and edges are directed links with
    dense integer identifiers so that per-link state (loss rates, Gilbert
    chains, variances) lives in plain arrays. *)

type node_kind = Host | Router

type node = { id : int; kind : node_kind; as_id : int }

type edge = { id : int; src : int; dst : int }

type t

val create : nodes:node array -> edges:(int * int) array -> t
(** [create ~nodes ~edges] builds a graph. Node ids must equal their index
    in [nodes]; edge endpoints must be valid node ids; self-loops and
    duplicate edges are rejected. Edge ids are assigned in array order. *)

val of_undirected :
  nodes:node array -> links:(int * int) array -> t
(** Convenience: every undirected link (u, v) becomes the two directed
    edges (u, v) and (v, u). *)

val node_count : t -> int

val edge_count : t -> int

val node : t -> int -> node

val edge : t -> int -> edge

val nodes : t -> node array

val edges : t -> edge array

val out_edges : t -> int -> edge list
(** Edges leaving a node, in increasing destination order (this fixed order
    makes shortest-path tie-breaking deterministic). *)

val in_degree : t -> int -> int

val out_degree : t -> int -> int

val find_edge : t -> src:int -> dst:int -> edge option

val hosts : t -> node array
(** All nodes of kind [Host], in id order. *)

val is_inter_as : t -> int -> bool
(** Whether the edge's endpoints belong to different ASes. *)

val undirected_components : t -> int
(** Number of weakly connected components. *)

val pp : Format.formatter -> t -> unit
