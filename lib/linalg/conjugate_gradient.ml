type stats = {
  iterations : int;
  residual_norm : float;
  relative_residual : float;
  converged : bool;
}

let m_nonconverged =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS solves that stopped before reaching tolerance"
    "lia_solver_nonconverged_total"

let cgls_iterations =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS iterations, Phase 1 and Phase 2" "lia_cgls_iterations"

let m_relres =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Per-iteration relative residuals of the iterative solvers"
    ~buckets:[| 1e-14; 1e-12; 1e-10; 1e-8; 1e-6; 1e-4; 1e-2; 1. |]
    "lia_cgls_relres"

let m_iter_seconds =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Wall seconds per iterative-solver iteration"
    ~buckets:[| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1. |]
    "lia_cgls_iter_seconds"

(* process-wide solve ids so convergence lines from concurrent solves
   can be told apart after the fact *)
let solve_counter = Atomic.make 0

let new_solve_id () = 1 + Atomic.fetch_and_add solve_counter 1

let instrumented () =
  Obs.Metrics.enabled Obs.Metrics.default
  || Obs.Recorder.enabled Obs.Recorder.default
  || Obs.Convergence.enabled Obs.Convergence.default

let note_iteration ~solver ~solve ~iteration ~relative_residual ~iter_seconds
    ~context =
  Obs.Metrics.observe m_relres relative_residual;
  Obs.Metrics.observe m_iter_seconds iter_seconds;
  if Obs.Recorder.enabled Obs.Recorder.default then
    Obs.Recorder.record Obs.Recorder.default ~kind:"solver_iter" solver
      ~fields:
        ([
           ("solve", Obs.Field.Int solve);
           ("iteration", Obs.Field.Int iteration);
           ("relres", Obs.Field.Float relative_residual);
         ]
        @ context);
  Obs.Convergence.emit Obs.Convergence.default ~solver ~solve ~iteration
    ~relative_residual ~context

let note_solve_done ~solver ~solve ~context stats =
  if Obs.Recorder.enabled Obs.Recorder.default then
    Obs.Recorder.record Obs.Recorder.default ~kind:"solver_done" solver
      ~fields:
        ([
           ("solve", Obs.Field.Int solve);
           ("iterations", Obs.Field.Int stats.iterations);
           ("relres", Obs.Field.Float stats.relative_residual);
           ("converged", Obs.Field.Bool stats.converged);
         ]
        @ context)

let note_nonconvergence ~solver ~iterations ~relative_residual =
  Obs.Metrics.incr m_nonconverged;
  Obs.Logger.warn Obs.Logger.default "iterative solver stopped before tolerance"
    ~fields:
      [
        ("solver", Obs.Field.Str solver);
        ("iterations", Obs.Field.Int iterations);
        ("relative_residual", Obs.Field.Float relative_residual);
      ];
  (* a starved or stalled solve is exactly the run the flight recorder
     exists for: dump the tail now in case the process never exits
     cleanly (no-op unless a dump path is configured) *)
  Obs.Recorder.auto_dump Obs.Recorder.default ~reason:"nonconvergence"
