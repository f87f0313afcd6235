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

val rank : ?rtol:float -> t -> int
(** Numerical rank: the number of diagonal entries of [R] larger than
    [rtol * max_diag] (default [rtol = 1e-10]). Only meaningful on a pivoted
    factorization; on an unpivoted one it is a lower bound. *)

val apply_qt : t -> Vector.t -> Vector.t
(** [apply_qt f b] is [Qᵀ b] (length [m]). *)

val solve_r : ?rtol:float -> t -> Vector.t -> Vector.t
(** Back-substitution on the leading [n × n] block of [R]. Raises [Failure]
    if some diagonal entry of [R] is at most [rtol * max_diag] in magnitude
    (default [rtol = 1e-13] — singular to working precision), sharing the
    relative-tolerance rule of {!rank}. *)

val least_squares : ?rtol:float -> t -> Vector.t -> Vector.t
(** [least_squares f b] minimizes [‖A x - b‖₂]; requires full column rank
    (raises [Failure] otherwise, under the [rtol] rule of {!solve_r}).
    Pivoting is undone, so the solution is in the original column order. *)

val matrix_rank : ?rtol:float -> Matrix.t -> int
(** Convenience: rank via pivoted QR. *)

val solve : ?rtol:float -> Matrix.t -> Vector.t -> Vector.t
(** Convenience: factorize then [least_squares]. For square systems this is
    a linear solve; for tall systems the least-squares solution. *)
