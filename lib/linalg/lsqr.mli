(** CGLS — conjugate gradient on least squares, matrix-free.

    Solves [min ‖A x − b‖₂] for an operator given only as the pair of
    products [x ↦ A x] and [y ↦ Aᵀ y], without ever forming [A] or
    [AᵀA]. This is the estimator path that avoids the Gram matrix of
    the augmented system (Definition 1), whose non-empty rows — the path
    pairs that share a link — it runs over ({!of_sparse}). CGLS
    runs the conjugate-gradient recurrence on the normal equations
    implicitly, with the well-known stabilized form that applies [A] and
    [Aᵀ] once each per iteration and never squares the conditioning.

    In exact arithmetic CGLS and LSQR (Paige–Saunders) produce the same
    iterates; CGLS is the shorter recurrence and is what this module
    implements. For full-column-rank systems the limit is the unique
    least-squares solution; for rank-deficient ones, the minimum-norm
    solution reachable from the zero start. *)

type operator = {
  rows : int;  (** rows of the implicit [A] *)
  cols : int;  (** columns of the implicit [A] *)
  apply : Vector.t -> Vector.t;  (** [x ↦ A x] ([cols] → [rows]) *)
  apply_t : Vector.t -> Vector.t;  (** [y ↦ Aᵀ y] ([rows] → [cols]) *)
}
(** A matrix seen only through its two products. The products must be
    linear and mutually transposed; nothing checks this beyond dimension
    validation. *)

val of_sparse : Sparse.t -> operator
(** The operator of an explicit sparse 0/1 matrix ({!Sparse.mul_vec} /
    {!Sparse.tmul_vec}): the live augmented rows of the
    Phase-1 solve, and the Phase-2 backend that solves [Y = R* X*]
    without densifying [R*]. Neither product allocates beyond its
    result. *)

val of_dense : Matrix.t -> operator
(** The operator of an explicit dense matrix; for tests and small
    systems. *)

val scaled_columns : operator -> Vector.t -> operator
(** [scaled_columns op w] is the operator of [A diag(w)] — the Jacobi
    (column-norm) right preconditioner. Solve with it, then multiply the
    solution element-wise by [w] to recover the unscaled unknowns; the
    minimizer is unchanged in exact arithmetic, but the iteration count
    drops when column norms are uneven (augmented matrices are: a link's
    column count ranges from 1 to the number of path pairs crossing
    it). *)

type stats = Conjugate_gradient.stats
(** For CGLS, [residual_norm] is [‖Aᵀ(b − A x)‖₂] — the normal-equations
    residual that is zero exactly at a least-squares minimizer — and
    [relative_residual] is it divided by [‖Aᵀb‖₂]. *)

val cgls :
  ?tol:float ->
  ?max_iter:int ->
  ?precond:Precond.t ->
  ?context:(string * Obs.Field.t) list ->
  operator ->
  Vector.t ->
  Vector.t * stats
(** [cgls op b] minimizes [‖A x − b‖₂] from [x₀ = 0]. Stops when
    [‖Aᵀ(b − A x)‖ ≤ tol · ‖Aᵀ b‖] (default [tol = 1e-10]) or after
    [max_iter] iterations (default [2 · cols], generous because each
    iteration is one [apply] + one [apply_t]); when [‖Aᵀ b‖ = 0] the
    result is [x = 0] with a zero (never NaN) [relative_residual].
    Non-convergence is reported in the returned [stats], counted in the
    [lia_solver_nonconverged_total] metric, logged as a warning and
    answered with a flight-recorder {!Obs.Recorder.auto_dump}; the
    iterations run are added to the {!Conjugate_gradient.cgls_iterations}
    counter. Raises
    [Invalid_argument] on a length mismatch or a [tol] that is not a
    number in (0, 1) — an infinite or NaN tolerance would otherwise
    stop before the first iteration. Deterministic: the same operator,
    right-hand side and options run the same floating-point operations
    in the same order.

    [precond] runs the recurrence on the right-preconditioned operator
    [A C⁻¹] and maps the solution back ([x = C⁻¹ u]); see {!Precond}.
    Without it the recurrence is untouched — bit-for-bit the historical
    arithmetic.

    [context] labels the solve's telemetry. Each iteration emits one
    [solver_iter] event and the solve one [solver_done] event through
    {!Obs.Event.emit}, named ["cgls"] with a process-wide [solve] id and
    the context fields appended; with metrics on, each iteration also
    lands in the [lia_cgls_relres] / [lia_cgls_iter_seconds] histograms.
    With the event stream and metrics off the probes (and their clock
    reads) are skipped; either way the iterates are bit-for-bit
    unaffected. *)
