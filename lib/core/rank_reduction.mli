(** Phase 2, step 2 of LIA (Section 5.2): eliminate the least-congested
    links from the routing matrix until it has full column rank.

    Links are ordered by their learnt variances (Assumption S.3 makes
    variance a proxy for congestion level); the paper's loop removes the
    lowest-variance column while the matrix is column-rank deficient.
    That procedure keeps exactly the longest full-column-rank suffix of
    the variance ordering, which we find with a single descending sweep
    over a {!Linalg.Exact_basis}: a column is kept when it is exactly
    independent, over GF(2³¹ − 1), of the columns kept before it.

    The order is on a relative grid: a variance counts as [round (v / g)],
    [g = 1e-12 · max |v|] over the finite entries (the raw value when
    [g = 0]), and inside a grid cell the higher column id comes first.
    Variances two Phase-1 solvers compute a few ulps apart then keep the
    same columns unless they straddle a cell boundary. *)

type result = {
  kept : int array;  (** column ids of [R*], in descending variance order *)
  removed : int array;  (** eliminated columns (inferred loss rate 0) *)
}

val eliminate : Linalg.Sparse.t -> Linalg.Vector.t -> result
(** [eliminate r v]: the paper's rule. [v] must have one entry per column
    of [r]. Raises [Invalid_argument] on a length mismatch. *)

val eliminate_greedy : Linalg.Sparse.t -> Linalg.Vector.t -> result
(** Ablation: instead of stopping at the first dependent column, keep
    scanning and retain every column independent of the higher-variance
    ones already kept. Keeps at least as many columns as {!eliminate};
    agreement between the two is a good sanity indicator. *)
