(** Phase 1 of LIA: solving [Σ̂* = A v] for the link variances (Sec 5.1).

    Theorem 1 guarantees [A] has full column rank, so with exact
    covariances the solution is unique. With sampled covariances the
    system is inconsistent; we solve it in the least-squares sense,
    through the normal equations ({!estimate}) or through CGLS
    ({!estimate_matfree_ess}), never materializing [A] (the paper uses
    a dense Householder QR of [A]; the test suite keeps that solve as
    its oracle). Negative sample covariances — pure sampling artifacts,
    as covariances of path losses are non-negative under the model —
    are dropped by default, as in the paper's experiments.

    {b Graceful degradation.} The streaming kernel tolerates missing
    measurements (NaN cells, as produced by {!Quarantine.scrub} or by
    host churn): each pair covariance is computed over the
    pairwise-complete snapshots only, with column means taken over the
    present entries, and pairs with fewer than [min_pair_samples]
    overlapping snapshots are excluded from the system. On a complete
    matrix the guarded path is never entered and the result is
    bit-for-bit the historical estimator.

    {b Only the pairs that share a link.} A pair of paths with disjoint
    routes has an all-zero row in [A] and adds nothing to the system.
    Both estimators below ({!estimate}, {!estimate_matfree_ess})
    therefore list the non-empty pairs once per call
    ({!Augmented.pairs}) and compute covariances and accumulate only
    over that list: [P*] pairs instead of n_p(n_p+1)/2. On
    PlanetLab-like overlays [P*] is 4–13% of the triangle; on the other
    generators at 250–870 paths it is 2–4% (Waxman), 8–9% (BA), 8–12%
    (DIMES), 18–36% (tree), about 31% (transit-stub) and 32–35%
    (hier-td). *)

type ess = {
  pairs_total : int;
      (** path pairs whose augmented row is non-empty (pairs sharing at
          least one link) *)
  pairs_used : int;
      (** of those, pairs with at least [min_pair_samples] overlapping
          snapshots — equal to [pairs_total] on a complete matrix *)
  samples_min : int;
      (** smallest pairwise-complete sample count among the used pairs
          ([m] on a complete matrix; 0 when no pair was usable) *)
}
(** Effective-sample-size accounting for the pairwise-complete
    estimator, the signal [Lia.infer_checked] grades degradation on.
    Every run adds its [pairs_total] to the [lia_pairs_total] counter. *)

val estimate :
  ?jobs:int ->
  ?drop_negative:bool ->
  ?clamp:bool ->
  ?min_pair_samples:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t
(** Solves the normal equations of [Σ̂* = A v] in one pass over the
    non-empty pair rows ({!Augmented.pairs}), accumulating [AᵀA] and
    [AᵀΣ̂*] directly: work is O(P*·(m + L²)) for [P*] pairs sharing a
    link, [m] snapshots and support length [L], and memory O(n_c²) plus
    the O(P*·L) pair list. This is what makes the PlanetLab-scale
    systems (hundreds of thousands of path pairs) solvable in seconds,
    as reported in Section 6.4.

    [AᵀΣ̂*] is summed in blocks of the flat row range (the pair
    triangle's canonical order), each block in row order, and the block
    partials are merged in block order, over [jobs] domains (default
    [Parallel.Pool.default_jobs ()], so 1 on a single-core host). The
    blocks depend only on n_p, so the result is bit-for-bit identical
    for every [jobs] value — and to a sweep over the whole triangle,
    whose empty rows add nothing.

    [drop_negative] (default true) ignores the equations with
    [Σ̂ᵢᵢ' < 0]; [clamp] (default true) clamps the solution at 0.
    [min_pair_samples] (default 2) is the effective-sample-size guard of
    the pairwise-complete path: pairs with fewer overlapping snapshots
    are excluded from the normal equations. Raises [Invalid_argument]
    when it is below 2. *)

val estimate_streaming_ess :
  ?jobs:int ->
  ?drop_negative:bool ->
  ?clamp:bool ->
  ?min_pair_samples:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * ess
(** {!estimate} plus the effective-sample-size report; the returned
    variances are bit-for-bit those of {!estimate}. The [ess] integers
    are exact and identical for every [jobs] value. *)

(** {1 Iterative path}

    {!estimate} forms the dense [n_c × n_c] Gram matrix and factors it.
    The iterative path never forms it: the live rows — the non-empty
    pairs that pass the min-overlap, drop-negative and sketch rules —
    become a sparse matrix, and {!Linalg.Lsqr.cgls} solves the
    least-squares system over it. Each iteration costs
    O(P*·L) and the pair list takes O(P*·L) memory. *)

type precond_spec =
  | Pc_none  (** raw CGLS, no scaling *)
  | Pc_jacobi
      (** column-count equalization — the historical default, bit-for-bit
          the pre-preconditioner-hook arithmetic *)
  | Pc_block_jacobi of int array array
      (** hierarchical block-Jacobi over the given column groups (e.g.
          {!Topology.Partition.group_cols} of an AS partition): the
          operator is reordered into doubly-bordered block-diagonal form
          and each group's Gram block is Cholesky-factored independently
          ({!Linalg.Precond.block_jacobi}). The groups must partition the
          columns; the border group rides last. *)

type matfree_options = {
  tol : float;  (** CGLS relative tolerance on [‖Aᵀr‖] (default 1e-10) *)
  max_iter : int option;  (** iteration cap; [None] = [2 · n_c] *)
  mf_drop_negative : bool;
      (** ignore equations with [Σ̂ᵢᵢ' < 0], as {!estimate}'s
          [drop_negative] (default true) *)
  mf_clamp : bool;
      (** clamp inferred variances at 0, as {!estimate}'s [clamp]
          (default true) *)
  mf_min_pair_samples : int;  (** as in {!estimate} (default 2) *)
  sample : (float * int) option;
      (** [Some (fraction, seed)] solves over a deterministic row-sampling
          sketch ({!Augmented.sample_mask}) instead of the full triangle —
          a speed/accuracy dial for very large systems. [None] (default)
          uses every row. *)
  mf_precond : precond_spec;  (** default [Pc_jacobi] *)
}

val default_matfree_options : matfree_options

val estimate_matfree_ess :
  ?options:matfree_options ->
  ?jobs:int ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * ess * Linalg.Lsqr.stats
(** The iterative estimator: lists the non-empty pairs
    ({!Augmented.pairs}), keeps the live rows (drop-negative rule,
    effective-sample-size guard, optional sampling sketch) in flat row
    order with their covariances as the right-hand side, and runs
    preconditioned CGLS on {!Linalg.Lsqr.of_sparse} of those rows.
    Jacobi weights are the live rows' {!Linalg.Sparse.column_counts};
    block-Jacobi factors their {!Linalg.Sparse.gram_block}s. Solves the
    same least-squares problem as the streaming path over the same
    surviving rows, so on full-column-rank systems the minimizer agrees
    to solver tolerance. The [ess] accounting matches
    {!estimate_streaming_ess} pair for pair. Bit-for-bit identical for
    every [jobs] value. Raises [Invalid_argument] as {!estimate}. *)
