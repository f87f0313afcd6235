(** CGLS solve statistics and the solver telemetry hooks.

    {!Lsqr.cgls}, the library's only iterative solver, reports its
    outcome as a {!stats} record and feeds its per-iteration telemetry
    through the hooks below. The module keeps its historical name (it
    once held a conjugate-gradient solver for SPD systems) because the
    benchmark harness reads the [Conjugate_gradient.iterations] field. *)

type stats = {
  iterations : int;
  residual_norm : float;  (** final residual norm (see {!Lsqr.stats}) *)
  relative_residual : float;
      (** [residual_norm] over the solve's reference norm ([0.] when
          that is 0) — compare against the [tol] the solve was asked
          for *)
  converged : bool;
      (** whether the solve reached [tol] before hitting [max_iter] (or
          stalling). A [false] here has already been counted in the
          [lia_solver_nonconverged_total] metric and logged as a
          warning; callers decide whether to degrade or refuse. *)
}

val cgls_iterations : Obs.Metrics.counter
(** The [lia_cgls_iterations] counter: every iteration {!Lsqr.cgls}
    runs, Phase 1 and Phase 2 alike. *)

(** {2 Telemetry hooks}

    {!Lsqr.cgls} feeds three outputs, each behind its own enable check:
    the [lia_cgls_relres] / [lia_cgls_iter_seconds] histograms, the
    flight recorder ([solver_iter] / [solver_done] events), and the
    {!Obs.Convergence} JSONL stream. None of them reads the computation back, so estimates
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
    (["phase"], ["precond"]). *)

val note_solve_done :
  solver:string ->
  solve:int ->
  context:(string * Obs.Field.t) list ->
  stats ->
  unit
(** Record a solve's final stats as a [solver_done] recorder event. *)

val note_nonconvergence :
  solver:string -> iterations:int -> relative_residual:float -> unit
(** Non-convergence hook for {!Lsqr.cgls}: bumps the
    [lia_solver_nonconverged_total] counter, emits an {!Obs.Logger}
    warning naming the solver, and triggers {!Obs.Recorder.auto_dump}
    (reason ["nonconvergence"]) so a starved solve leaves a
    flight-recorder dump behind even if the process dies before
    [at_exit]. *)
