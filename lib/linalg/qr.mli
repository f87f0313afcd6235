(** Householder orthogonal-triangular factorization.

    This is the solver the paper uses for the moment systems (Golub & Van
    Loan): [A = Q R] with [Q] orthogonal and [R] upper triangular. We keep
    the Householder vectors in factored form and never materialize [Q],
    which is all that least-squares solving and rank queries need.

    The factorization is built once and can then serve many right-hand
    sides ({!least_squares}, {!least_squares_batch}) — the serving-path
    pattern of [Core.Plan]. The trailing-matrix update of the
    factorization and the batched solves run on the [Parallel.Pool]
    domain pool; like the rest of the library's parallel kernels they are
    bit-for-bit identical for every [jobs] value, because each column is
    computed by exactly one task with a fixed operation order.

    A factorization keeps its own row-major copy of the matrix as a
    plain [float array], filled once by {!factorize}; every kernel here
    reads and writes that array directly, so none of them allocates per
    entry. *)

type t
(** A factorization of an [m × n] matrix with [m ≥ 0], [n ≥ 0]. *)

val factorize : ?jobs:int -> Matrix.t -> t
(** Householder QR without pivoting. [jobs] (default
    [Parallel.Pool.default_jobs ()]) parallelizes the trailing-matrix
    update over columns; the factors are bit-for-bit identical for every
    value. The input is copied; the caller keeps it. *)

val factorize_pivoted : ?jobs:int -> Matrix.t -> t
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

val least_squares_batch : ?rtol:float -> ?jobs:int -> t -> Matrix.t -> Matrix.t
(** [least_squares_batch f b] solves one least-squares problem per column
    of the [m × nrhs] matrix [b]: column [c] of the [n × nrhs] result is
    bit-for-bit [least_squares f (Matrix.col b c)]. Each reflector is
    applied across all right-hand sides in one cache-friendly blocked
    pass, pool-parallel over column blocks ([jobs], default
    [Parallel.Pool.default_jobs ()]); the result is identical for every
    [jobs] value. Raises [Failure] once, up front, if [R] is singular to
    [rtol] — the check depends only on the factorization. *)

val matrix_rank : ?rtol:float -> Matrix.t -> int
(** Convenience: rank via pivoted QR. *)

val solve : ?rtol:float -> ?jobs:int -> Matrix.t -> Vector.t -> Vector.t
(** Convenience: factorize then [least_squares]. For square systems this is
    a linear solve; for tall systems the least-squares solution. *)
