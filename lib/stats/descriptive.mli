(** Batch descriptive statistics over float arrays and snapshot matrices. *)

val mean : float array -> float
(** Arithmetic mean; raises [Invalid_argument] on empty input. *)

val variance : float array -> float
(** Unbiased sample variance; 0 for fewer than two observations. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance of two equal-length samples; 0 for fewer
    than two observations; raises [Invalid_argument] on length mismatch. *)

val correlation : float array -> float array -> float
(** Pearson correlation; 0 when a marginal variance vanishes. *)

val spearman : float array -> float array -> float
(** Spearman rank correlation (Pearson on mid-ranks, so ties are
    handled); the natural check of the monotonicity assumption S.3. *)

val minimum : float array -> float

val maximum : float array -> float

val median : float array -> float
(** Median by sorting a copy; raises [Invalid_argument] on empty input. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in [0,1], with linear interpolation between
    order statistics (type-7, the numpy default). *)

val covariance_matrix : ?jobs:int -> Linalg.Matrix.t -> Linalg.Matrix.t
(** Rows are observations (snapshots), columns are variables (paths). This
    is the [Σ̂] of eq. (7). Requires at least two rows. Computed as
    pairwise covariances of centered columns — the dense centered matrix
    is never materialized — with the pair triangle cut into blocks run on
    [jobs] domains (default [Parallel.Pool.default_jobs ()]); every entry
    is written by exactly one block, so the result is bit-for-bit
    identical for every [jobs]. *)

val mean_vector : Linalg.Matrix.t -> Linalg.Vector.t
(** Column means of an observation matrix. *)
