type stats = {
  iterations : int;
  residual_norm : float;
  relative_residual : float;
  converged : bool;
}

let cgls_iterations =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS iterations, Phase 1 and Phase 2" "lia_cgls_iterations"
