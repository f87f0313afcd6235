(** The augmented matrix [A] of Definition 1.

    For a routing matrix [R] with [n_p] rows, [A] has one row per ordered
    pair [(i, j)] with [i <= j]: the element-wise product [Ri∗ ⊗ Rj∗]
    (which is [Ri∗] itself when [i = j], since [R] is 0/1). Lemma 1 turns
    [Σ = R diag(v) Rᵀ] into the linear system [Σ* = A v], and Theorem 1
    shows [A] has full column rank for every valid topology — this is what
    makes the link variances identifiable.

    The library never forms [A]: with n_p(n_p+1)/2 rows it is quadratic
    in the path count, and most of its rows are empty ({!pairs}). *)

val row_index : np:int -> i:int -> j:int -> int
(** Row of the pair [(i, j)], [0 <= i <= j < np], in the canonical
    upper-triangular order: all pairs [(0, j)], then [(1, j)], etc.
    Raises [Invalid_argument] on a bad pair. *)

val row_count : np:int -> int
(** [np * (np+1) / 2]. *)

(** {1 The non-empty rows}

    A pair of paths that shares no link has an all-zero row in [A], so it
    adds nothing to [Σ̂* = A v]. On PlanetLab-like overlays only 4–13% of
    the n_p(n_p+1)/2 pairs share a link (2–36% across the other
    topology generators), so both Phase-1 estimators work on the list of
    non-empty rows rather than on the whole pair triangle. *)

val pairs :
  ?jobs:int -> Linalg.Sparse.t -> int array * int array * Linalg.Sparse.t
(** [pairs r] is [(is, js, s)]: entry [p] is the pair [(is.(p), js.(p))],
    [is.(p) <= js.(p)], whose routing rows intersect, and row [p] of [s]
    is that intersection — row {!row_index}[ ~i:is.(p) ~j:js.(p)] of
    [A]. Every such pair appears once, in increasing {!row_index} order;
    pairs with an empty intersection do not appear.

    The pairs are found through the link→paths index
    ({!Linalg.Sparse.cols_index}), so the cost follows the number of
    non-empty pairs and their supports, not n_p². Paths are enumerated in
    blocks over [jobs] domains (default [Parallel.Pool.default_jobs ()]);
    each path fills only its own slots of exactly sized arrays, so the
    result is identical for every [jobs]. *)

val sample_mask : np:int -> fraction:float -> seed:int -> Bytes.t
(** A deterministic row-sampling sketch mask: row [k] is kept iff a
    SplitMix64 hash of [(seed, k)] falls below [fraction]. The same
    [(np, fraction, seed)] always selects the same rows, on every
    platform. [fraction] outside [0, 1] raises [Invalid_argument];
    [fraction = 1.] keeps every row. *)
