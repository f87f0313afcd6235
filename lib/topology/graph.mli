(** Directed network graphs.

    Nodes are routers or end-hosts, carry an AS identifier (used by the
    inter-/intra-AS analysis of Table 3), and edges are directed links with
    dense integer identifiers so that per-link state (loss rates, Gilbert
    chains, variances) lives in plain arrays. *)

type node_kind = Host | Router

type node = { id : int; kind : node_kind; as_id : int }

type csr = private {
  start : int array;
      (** node [u]'s out-edges are the slots [start.(u)] to
          [start.(u + 1) - 1] *)
  dst : int array;  (** each slot's destination, increasing within a node *)
  id : int array;  (** each slot's edge id *)
}
(** The out-edges in compressed sparse rows. The increasing destination
    order within a node makes shortest-path tie-breaking deterministic. *)

type edge = { id : int; src : int; dst : int }

type t

val create : nodes:node array -> edges:(int * int) array -> t
(** [create ~nodes ~edges] builds a graph. Node ids must equal their index
    in [nodes]; edge endpoints must be valid node ids; self-loops and
    duplicate edges are rejected (the first offending edge in array order
    names the error). Edge ids are assigned in array order. Two counting
    sorts order the out-edges, so building costs O(nodes + edges). *)

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

val out_edges : t -> csr
(** The graph's own out-edge arrays, without allocating or copying:
    read them, never write them. *)

val out_degree : t -> int -> int
(** Number of edges leaving a node; O(1). *)

val in_degree : t -> int -> int

val find_edge : t -> src:int -> dst:int -> edge option
(** A binary search of [src]'s out-edges: O(log (out_degree g src)).
    [None] also when [src] is not a node. *)

val hosts : t -> node array
(** All nodes of kind [Host], in id order. *)

val is_inter_as : t -> int -> bool
(** Whether the edge's endpoints belong to different ASes. *)

val undirected_components : t -> int
(** Number of weakly connected components. *)

val pp : Format.formatter -> t -> unit
