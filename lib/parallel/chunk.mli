(** Chunked index-range scheduling.

    Work is cut into blocks whose count depends only on the problem size,
    never on the number of workers: a kernel that merges per-block partial
    results in block order therefore produces bit-for-bit identical output
    for every [jobs] value, because exactly the same floating-point
    operations run in exactly the same order — only the assignment of
    blocks to domains changes. *)

val block_count : ?min_block:int -> ?max_blocks:int -> int -> int
(** [block_count n] is how many blocks to cut [n] work items into:
    [n / min_block] clamped to [1 .. max_blocks] (0 when [n = 0]).
    Defaults: [min_block = 2048] (below this, one block — the sequential
    fallback), [max_blocks = 64] (plenty of slack for load balancing on
    any core count we target). Both knobs are size heuristics, not worker
    counts: the result never depends on the pool. *)

val range : blocks:int -> n:int -> int -> int * int
(** [range ~blocks ~n b] is the half-open range [(lo, hi)] of block [b]
    in a balanced partition of [0 .. n-1]: sizes differ by at most one and
    the ranges tile [0, n) in order. Raises [Invalid_argument] if [b] is
    not in [0 .. blocks-1]. *)

val iter_pairs : np:int -> lo:int -> hi:int -> (int -> int -> int -> unit) -> unit
(** [iter_pairs ~np ~lo ~hi f] calls [f k i j] for every flattened
    upper-triangle index [k] in [lo .. hi-1], in increasing order, where
    [(i, j)] with [0 <= i <= j < np] is pair number [k] in the canonical
    row-major order — the same order as [Core.Augmented.row_index]. The
    start pair is located once and then advanced incrementally, so a
    block of [hi - lo] pairs costs O(np + hi - lo). *)
