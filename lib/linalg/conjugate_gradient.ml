type stats = {
  iterations : int;
  residual_norm : float;
  relative_residual : float;
  converged : bool;
}

let m_nonconverged =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Iterative solves (CG, CGLS) that stopped before reaching tolerance"
    "lia_solver_nonconverged_total"

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

let solve_matfree ?(tol = 1e-10) ?max_iter ?(context = []) ~dim ~mul b =
  if Array.length b <> dim then
    invalid_arg "Conjugate_gradient.solve_matfree: dimension mismatch";
  if tol <= 0. then invalid_arg "Conjugate_gradient: non-positive tolerance";
  if not (tol < 1.) then
    invalid_arg "Conjugate_gradient: tolerance not a number in (0, 1)";
  let max_iter = Option.value max_iter ~default:(max 1 dim) in
  let probes = instrumented () in
  let solve_id = if probes then new_solve_id () else 0 in
  let x = Vector.zeros dim in
  let r = Vector.copy b in
  let p = Vector.copy b in
  let rs = ref (Vector.dot r r) in
  let norm_b = Vector.norm2 b in
  let threshold = tol *. norm_b in
  let iters = ref 0 in
  let continue_ = ref (sqrt !rs > threshold && threshold >= 0.) in
  if norm_b = 0. then continue_ := false;
  while !continue_ && !iters < max_iter do
    incr iters;
    let t0 = if probes then Obs.Clock.now_ns () else 0L in
    let ap = mul p in
    let pap = Vector.dot p ap in
    if pap <= 0. then continue_ := false (* not SPD or converged to noise *)
    else begin
      let alpha = !rs /. pap in
      Vector.axpy alpha p x;
      Vector.axpy (-.alpha) ap r;
      let rs' = Vector.dot r r in
      if sqrt rs' <= threshold then continue_ := false
      else begin
        let beta = rs' /. !rs in
        for i = 0 to dim - 1 do
          p.(i) <- r.(i) +. (beta *. p.(i))
        done
      end;
      rs := rs'
    end;
    if probes then
      note_iteration ~solver:"cg" ~solve:solve_id ~iteration:!iters
        ~relative_residual:(if norm_b = 0. then 0. else sqrt !rs /. norm_b)
        ~iter_seconds:(Obs.Clock.seconds_since t0)
        ~context
  done;
  let residual_norm = Vector.norm2 r in
  let relative_residual = if norm_b = 0. then 0. else residual_norm /. norm_b in
  let converged = residual_norm <= threshold in
  let stats = { iterations = !iters; residual_norm; relative_residual; converged } in
  if probes then note_solve_done ~solver:"cg" ~solve:solve_id ~context stats;
  if not converged then
    note_nonconvergence ~solver:"cg" ~iterations:!iters ~relative_residual;
  (x, stats)

let solve ?tol ?max_iter ?context m b =
  let n = Matrix.rows m in
  if Matrix.cols m <> n then invalid_arg "Conjugate_gradient.solve: not square";
  solve_matfree ?tol ?max_iter ?context ~dim:n ~mul:(fun x -> Matrix.mul_vec m x) b
