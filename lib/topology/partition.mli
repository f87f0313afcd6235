(** Stable AS partitions of reduced routing-matrix columns.

    The hierarchical solve path shards the reduced routing matrix [R] by
    autonomous system: each column (virtual link) whose physical edges
    all live inside one AS joins that AS's group, and every column
    touching an AS boundary — an inter-AS edge, or member edges from
    different ASes (possible after aliasing) — lands in the {e border}
    group. Permuting the columns group-by-group with the border last
    puts [R] (and the augmented operator built from it) in
    doubly-bordered block-diagonal form: intra-AS diagonal blocks
    coupled only through the border columns. The diagonal blocks are the
    independently factorable units of {!Linalg.Precond.block_jacobi} and
    the shardable outer loop of the ROADMAP.

    The partition is a pure function of the graph's AS labels and the
    reduction — groups ordered by ascending AS id with the border last,
    columns ascending within each group — so every consumer (solver,
    bench, tests) sees the same blocks in the same order. *)

type t

val by_as : Graph.t -> Routing.reduced -> t
(** [by_as graph red] classifies every column of [red.matrix] by the AS
    membership of its physical edges. Only non-empty groups appear; a
    single-AS topology yields one group and no border. *)

val group_cols : t -> int array array
(** The column index sets of the groups, ascending AS id with the
    border last, each strictly increasing (fresh outer array, shared
    inner arrays: do not mutate). *)

val order : t -> int array
(** The concatenation of all groups' columns — a permutation of
    [0 .. cols-1] suitable for {!Linalg.Sparse.permute_cols}. Fresh
    array. *)
