(** Right preconditioners for matrix-free least squares ({!Lsqr.cgls}).

    CGLS on [min ‖A x − b‖] converges at a rate governed by the
    conditioning of [AᵀA]. A right preconditioner picks an invertible
    [C] approximating a factor of [AᵀA] ([CᵀC ≈ AᵀA]), solves the
    better-conditioned problem [min ‖(A C⁻¹) u − b‖], and maps back
    [x = C⁻¹ u]; the minimizer is unchanged in exact arithmetic, only
    the iteration count moves. A preconditioner here is the pair of
    products CGLS needs: [u ↦ C⁻¹ u] and [s ↦ C⁻ᵀ s].

    Two constructions matter for the augmented systems of this library:

    - {!jacobi} — [C = diag(AᵀA)^{1/2}], plain column equalization. One
      multiply per entry; helps whenever column norms are uneven (a
      backbone link sits in almost every pair row, a leaf link in few).
    - {!block_jacobi} — [C] is a block-diagonal Cholesky factor: the
      columns are partitioned (in this codebase, by AS — intra-AS groups
      plus the inter-AS border group of a doubly-bordered block-diagonal
      form), each small diagonal Gram block [G_g = (AᵀA)_{g,g}] is
      factored [G_g = L_g L_gᵀ], and [C = blockdiag(L_gᵀ)]. Within a
      group the preconditioned Gram is exactly the identity; only the
      dropped inter-group coupling is left to the iteration, which is
      what collapses the count when path-length skew piles wildly
      different column scales {e and} strong intra-AS coupling into one
      system.

    {b Determinism.} Factorization and application fan the blocks over
    {!Parallel.Pool}; every block reads and writes only its own column
    indices, so results are bit-for-bit identical for every [jobs]
    value. *)

type t

val cols : t -> int
(** Dimension [n] of the (square) preconditioner. *)

val block_count : t -> int
(** Diagonal blocks: 0 for {!identity}, 1 for {!jacobi}, the group count
    for {!block_jacobi}. *)

val identity : int -> t
(** [C = I]: {!solve} and {!solve_t} return their argument unchanged
    (same array, not a copy). *)

val jacobi : Vector.t -> t
(** [jacobi d] is [C = diag(max 1 dₑ)^{1/2}] for [d = diag(AᵀA)] (for a
    0/1 matrix, its {!Sparse.column_counts}). Entries below 1 — columns
    in no live row — clamp to 1 so the scale stays finite. Application
    multiplies by the precomputed reciprocal square roots, making
    [jacobi]-preconditioned {!Lsqr.cgls} run bit-for-bit the same
    floating-point operations as the historical
    {!Lsqr.scaled_columns} path. Raises [Invalid_argument] on a
    negative or non-finite entry. *)

val block_jacobi :
  ?jobs:int -> cols:int -> (int array * Matrix.t) array -> t
(** [block_jacobi ~cols blocks] factors each [(idx, g)] pair — [idx] the
    strictly increasing column indices of one group, [g] the symmetric
    positive (semi-)definite [|idx| × |idx|] diagonal Gram block — with
    {!Cholesky.factorize_regularized}, in parallel over [jobs] domains
    (default [Parallel.Pool.default_jobs ()]). Groups must be disjoint;
    columns covered by no group pass through unscaled. Raises
    [Invalid_argument] on overlapping/out-of-range indices or a block
    dimension mismatch, and [Cholesky.Not_positive_definite] if a block
    resists even heavy regularization. *)

val solve : t -> Vector.t -> Vector.t
(** [solve p u] is [C⁻¹ u] — preconditioned unknowns mapped back to the
    original ones. *)

val solve_t : t -> Vector.t -> Vector.t
(** [solve_t p s] is [C⁻ᵀ s] — the adjoint solve applied to [Aᵀ y]
    products. *)
