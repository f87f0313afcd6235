(** Sparse Cholesky factorization of symmetric positive-definite matrices.

    Used to solve the normal equations [AᵀA v = AᵀΣ*] of the
    variance-identification system (eq. 8 of the paper), whose Gram
    matrix is mostly zeros: a path pair's row of [A] covers only the
    links the two paths share; and those of eq. (9), [R*ᵀR* x = R*ᵀy],
    whose Gram links only the kept columns that share a path. The
    factorization is up-looking in the column order it is given: a
    symbolic pass builds the elimination tree and the pattern of every
    row of [L] (the entries' reach up the tree), then row [k] of [L] is
    computed at step [k], each entry a dot product over that pattern in
    increasing column order. The normal equations of Phase 1
    ({!solve_ordered}) and of Phase 2's plan ({!factorize_ordered} once,
    {!solve_ordered_vec} per snapshot) first reorder the columns to cut
    the fill.

    {b Bit-identity with the dense algorithm.} This runs exactly the
    floating-point operations of the dense left-looking Cholesky and of
    dense forward and back substitution, in the same order, except the
    products with a structural zero. Each of those subtracts [±0] from
    an accumulator that starts at an input entry, so on inputs without
    [−0.0] the accumulator is never [−0.0] and the subtraction leaves it
    unchanged. So for a finite input with no [−0.0] entry and a finite
    right-hand side with no [−0.0] entry, {!lower}, {!solve_vec} and the
    [Not_positive_definite] outcome are bit for bit those of the dense
    algorithm. A [−0.0] entry can flip the sign of an exact zero in the
    result. Gram counts and the right-hand sides of Phase 1 and of
    {!Sparse.normal_rhs} never contain [−0.0]. *)

exception Not_positive_definite

type sym = {
  diag : float array;  (** [a_ii], one per row *)
  cols : int array array;
      (** row [i]'s pattern below the diagonal: strictly increasing
          column indices [j < i] *)
  vals : float array array;  (** [a_ij] for those [j], in the same order *)
}
(** A symmetric [n × n] matrix by the rows of its lower triangle. The
    diagonal is always present (a zero diagonal entry is stored as
    [0.]); the strictly upper part is implied by symmetry. Every
    listed off-diagonal entry is part of the pattern, whatever its
    value. *)

type t

val of_matrix : Matrix.t -> sym
(** The lower triangle of a square dense matrix. The pattern is the
    strictly lower entries that are [≠ 0], so NaN entries stay in and
    [−0.0] entries drop out. The strictly upper part is ignored (assumed
    symmetric). Raises [Invalid_argument] if [m] is not square. *)

val factorize : sym -> t
(** [factorize a] computes the lower-triangular [L] with [a = L Lᵀ].
    Raises [Not_positive_definite] if a pivot is not strictly positive
    (or is NaN), and [Invalid_argument] if a row's pattern is not
    strictly increasing below the diagonal or its lengths disagree. *)

val factorize_regularized : ?ridge:float -> sym -> t
(** Like {!factorize}, but on failure retries with [r · mean_diag] added
    to the diagonal, where [mean_diag] is the mean [|a_ii|] (or [1] when
    that mean is [0]). [r] starts at [ridge] and is multiplied by 10
    after each failure, as long as the [r] that failed is at most
    [1e-2]: with the default [ridge = 1e-10] it tries [1e-10], [1e-9],
    …, [1e-1], then raises [Not_positive_definite]. The symbolic
    analysis is done once and reused by every retry. *)

val lower : t -> Matrix.t
(** The factor [L] as a dense matrix (zeros above the diagonal and at
    the pattern's structural zeros). *)

val solve_vec : t -> Vector.t -> Vector.t
(** [solve_vec f b] solves [L Lᵀ x = b]. *)

val solve : Matrix.t -> Vector.t -> Vector.t
(** One-shot [factorize (of_matrix m)] + {!solve_vec}. *)

type ordered
(** A factorization of [P g Pᵀ] for the fill-reducing symmetric
    permutation [P] of {!factorize_ordered}, kept with [P]. *)

val factorize_ordered : (sym -> t) -> sym -> ordered
(** [factorize_ordered factor g] runs [factor] ({!factorize}, or
    {!factorize_regularized} with its ridge) on [P g Pᵀ]. [P] sorts the
    columns by ascending degree in [g]'s pattern (listed off-diagonal
    entries in the column's row and column), ties by the lower index, so
    a column with few neighbours is eliminated before the hubs it
    touches. Ordering and permuting cost O(n log n + nnz(g)); on the
    Phase-1 Grams of PlanetLab-like overlays at 240–2 070 paths the
    factor holds 5–14× fewer entries than in the natural order. Raises
    what [factor] raises, and [Invalid_argument] on a malformed [g]. *)

val solve_ordered_vec : ordered -> Vector.t -> Vector.t
(** [solve_ordered_vec f b] solves [g x = b] for the [g] that [f]
    factors: {!solve_vec} on [P b], scattered back to [g]'s column
    order. Raises [Invalid_argument] on a [b] of the wrong length.

    The result is bit for bit the dense algorithm's on [P g Pᵀ] and
    [P b] (by the argument above, applied to the permuted matrix),
    scattered back, and so differs from a natural-order solve in the
    last bits. *)

val solve_ordered : ?ridge:float -> sym -> Vector.t -> Vector.t
(** [solve_ordered g b] is
    [solve_ordered_vec (factorize_ordered (factorize_regularized ?ridge) g) b]:
    the one-shot regularized solve of Phase 1's normal equations. Raises
    [Not_positive_definite] as {!factorize_regularized} does, and
    [Invalid_argument] on a malformed [g] or a [b] of the wrong length. *)

val log_det : t -> float
(** Log-determinant of the factored matrix. *)
