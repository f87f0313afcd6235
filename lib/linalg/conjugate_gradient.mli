(** CGLS solve statistics.

    {!Lsqr.cgls}, the library's only iterative solver, reports its
    outcome as a {!stats} record and counts its iterations in
    {!cgls_iterations}; its per-iteration telemetry goes through
    {!Obs.Event}. The module keeps its historical name (it once held a
    conjugate-gradient solver for SPD systems) because the benchmark
    harness reads the [Conjugate_gradient.iterations] field. *)

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
