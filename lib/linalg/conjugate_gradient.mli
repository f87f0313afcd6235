(** Conjugate gradient for symmetric positive-definite systems.

    An iterative alternative to {!Cholesky} for the normal equations
    [AᵀA v = AᵀΣ*]: O(n²) per iteration with early termination, which
    wins when the system is large and well-conditioned (the augmented
    Gram matrices of dense measurement campaigns are). Exposed both as a
    dense-matrix solve and as a matrix-free variant taking the
    matrix-vector product, so callers can keep [AᵀA] implicit. For
    least-squares systems that should never be squared into a Gram
    matrix at all, see {!Lsqr}. *)

type stats = {
  iterations : int;
  residual_norm : float;  (** final [‖b − M x‖₂] *)
  relative_residual : float;
      (** [residual_norm / ‖b‖₂] ([0.] when [b = 0]) — compare against
          the [tol] the solve was asked for *)
  converged : bool;
      (** whether the solve reached [tol] before hitting [max_iter] (or
          stalling on a non-SPD direction). A [false] here has already
          been counted in the [lia_solver_nonconverged_total] metric and
          logged as a warning; callers decide whether to degrade or
          refuse. *)
}

val solve :
  ?tol:float ->
  ?max_iter:int ->
  ?context:(string * Obs.Field.t) list ->
  Matrix.t ->
  Vector.t ->
  Vector.t * stats
(** [solve m b] for SPD [m]. Stops when the residual 2-norm falls below
    [tol * norm b] (default [tol = 1e-10]) or after [max_iter] iterations
    (default: dimension of the system). Raises [Invalid_argument] on
    non-square or mismatched inputs, or a [tol] that is not a number in
    (0, 1). [context] labels the solve's
    telemetry (see {!note_iteration}); it never affects the solution. *)

val solve_matfree :
  ?tol:float ->
  ?max_iter:int ->
  ?context:(string * Obs.Field.t) list ->
  dim:int ->
  mul:(Vector.t -> Vector.t) ->
  Vector.t ->
  Vector.t * stats
(** Matrix-free variant: [mul x] must compute [M x] for the implicit SPD
    matrix [M]. *)

(** {2 Shared telemetry hooks}

    The iterative solvers ({!Lsqr} included) feed three outputs, each
    behind its own enable check: the [lia_cgls_relres] /
    [lia_cgls_iter_seconds] histograms, the flight recorder
    ([solver_iter] / [solver_done] events), and the {!Obs.Convergence}
    JSONL stream. None of them reads the computation back, so estimates
    are bit-for-bit identical instrumented or not. *)

val instrumented : unit -> bool
(** Whether any of the three solver-telemetry outputs is enabled —
    solvers check once per solve and skip per-iteration clock reads and
    probe calls entirely when it is [false]. *)

val new_solve_id : unit -> int
(** Next process-wide solve id (1, 2, ...), so convergence lines from
    interleaved solves can be told apart. *)

val note_iteration :
  solver:string ->
  solve:int ->
  iteration:int ->
  relative_residual:float ->
  iter_seconds:float ->
  context:(string * Obs.Field.t) list ->
  unit
(** Record one solver iteration into histograms, recorder, and the
    convergence stream. [context] is the caller's solve labels
    (["phase"], ["precond"], ["warm"], ...). *)

val note_solve_done :
  solver:string ->
  solve:int ->
  context:(string * Obs.Field.t) list ->
  stats ->
  unit
(** Record a solve's final stats as a [solver_done] recorder event. *)

val note_nonconvergence :
  solver:string -> iterations:int -> relative_residual:float -> unit
(** Shared non-convergence hook for the iterative solvers ({!Lsqr} uses
    it too): bumps the [lia_solver_nonconverged_total] counter, emits an
    {!Obs.Logger} warning naming the solver, and triggers
    {!Obs.Recorder.auto_dump} (reason ["nonconvergence"]) so a starved
    solve leaves a flight-recorder dump behind even if the process dies
    before [at_exit]. *)
