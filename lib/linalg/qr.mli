(** Householder orthogonal-triangular factorization.

    This is the solver the paper uses for the moment systems (Golub & Van
    Loan): [A = Q R] with [Q] orthogonal and [R] upper triangular. We keep
    the Householder vectors in factored form and never materialize [Q],
    which is all that least-squares solving and rank queries need.

    No library module solves through it: Phase 1 and Phase 2 both solve
    their normal equations with {!Cholesky}. It stays as the accuracy
    reference of the tests' oracles, the rank of small dense matrices
    ({!matrix_rank}) and the paper's own solver in the elimination-rule
    ablation.

    A factorization keeps its own row-major copy of the matrix as a
    plain [float array], filled once by {!factorize}; every kernel here
    reads and writes that array directly, so none of them allocates per
    entry. *)

type t
(** A factorization of an [m × n] matrix with [m ≥ 0], [n ≥ 0]. *)

val factorize : Matrix.t -> t
(** Householder QR without pivoting. The input is copied; the caller
    keeps it. *)

val factorize_pivoted : Matrix.t -> t
(** QR with column pivoting (greedy largest remaining column norm); required
    for reliable rank decisions on rank-deficient matrices. *)

val pivots : t -> int array
(** [pivots f] maps factored column position to the original column index
    (identity for an unpivoted factorization). *)

val r : t -> Matrix.t
(** The upper-triangular factor (size [min m n × n], in the pivoted column
    order if pivoting was used). *)

val solve_r : ?rtol:float -> t -> Vector.t -> Vector.t
(** Back-substitution on the leading [n × n] block of [R]. Raises [Failure]
    if some diagonal entry of [R] is at most [rtol * max_diag] in magnitude
    (default [rtol = 1e-13] — singular to working precision);
    {!matrix_rank} applies the same relative rule at [1e-10]. *)

val matrix_rank : Matrix.t -> int
(** Numerical rank via pivoted QR: the number of diagonal entries of
    [R] larger than [1e-10 * max_diag]. *)

val solve : ?rtol:float -> Matrix.t -> Vector.t -> Vector.t
(** Minimizes [‖A x - b‖₂] through an unpivoted factorization: a linear
    solve for square systems, the least-squares solution for tall ones.
    Requires full column rank (raises [Failure] otherwise, under the
    [rtol] rule of {!solve_r}). *)
