type operator = {
  rows : int;
  cols : int;
  apply : Vector.t -> Vector.t;
  apply_t : Vector.t -> Vector.t;
}

type stats = Conjugate_gradient.stats

let of_sparse m =
  {
    rows = Sparse.rows m;
    cols = Sparse.cols m;
    apply = (fun x -> Sparse.mul_vec m x);
    apply_t = (fun y -> Sparse.tmul_vec m y);
  }

let of_dense m =
  {
    rows = Matrix.rows m;
    cols = Matrix.cols m;
    apply = (fun x -> Matrix.mul_vec m x);
    apply_t = (fun y -> Matrix.tmul_vec m y);
  }

let scaled_columns op w =
  if Array.length w <> op.cols then
    invalid_arg "Lsqr.scaled_columns: weight length mismatch";
  {
    op with
    apply = (fun x -> op.apply (Vector.hadamard w x));
    apply_t = (fun y -> Vector.hadamard w (op.apply_t y));
  }

let m_nonconverged =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS solves that stopped before reaching tolerance"
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

(* process-wide solve ids (1, 2, ...) so the events of interleaved
   solves can be told apart after the fact *)
let solve_counter = Atomic.make 0

(* CGLS in the stabilized two-term form (Björck): one apply and one
   apply_t per iteration, the normal-equations residual s = Aᵀr carried
   explicitly so the stopping test costs nothing extra.

   With [precond] the recurrence runs on Ã = A C⁻¹ (right
   preconditioning): every iterate u lives in the preconditioned
   coordinates and the returned solution is x = C⁻¹ u. *)
let cgls ?(tol = 1e-10) ?max_iter ?precond ?(context = []) op b =
  if Array.length b <> op.rows then invalid_arg "Lsqr.cgls: rhs length mismatch";
  if tol <= 0. then invalid_arg "Lsqr.cgls: non-positive tolerance";
  (* an infinite, NaN or >= 1 tolerance would stop before the first
     iteration and pass the zero start off as a converged solve *)
  if not (tol < 1.) then
    invalid_arg "Lsqr.cgls: tolerance not a number in (0, 1)";
  let n = op.cols in
  (match precond with
  | Some p when Precond.cols p <> n ->
      invalid_arg "Lsqr.cgls: preconditioner dimension mismatch"
  | _ -> ());
  let solve_u = match precond with None -> Fun.id | Some p -> Precond.solve p in
  let solve_t = match precond with None -> Fun.id | Some p -> Precond.solve_t p in
  let apply u = op.apply (solve_u u) in
  let apply_t y = solve_t (op.apply_t y) in
  let max_iter = Option.value max_iter ~default:(max 1 (2 * n)) in
  let u = Vector.zeros n and r = Vector.copy b in
  let s = apply_t r in
  if Array.length s <> n then invalid_arg "Lsqr.cgls: apply_t dimension mismatch";
  let gamma0 = Vector.dot s s in
  let ref_norm = sqrt gamma0 in
  let timed = Obs.Metrics.enabled Obs.Metrics.default in
  let events = Obs.Event.on () in
  let solve_id = if events then 1 + Atomic.fetch_and_add solve_counter 1 else 0 in
  let emit kind fields =
    Obs.Event.emit ~kind "cgls"
      ~fields:((("solve", Obs.Field.Int solve_id) :: fields) @ context)
  in
  let stats_of ~iterations ~residual_norm ~converged =
    (* guard the zero-norm reference: 0/0 must read as "already there",
       never as NaN (pinned by test_linalg's zero-rhs cases) *)
    let relative_residual =
      if ref_norm > 0. then residual_norm /. ref_norm else 0.
    in
    let stats =
      {
        Conjugate_gradient.iterations;
        residual_norm;
        relative_residual;
        converged;
      }
    in
    Obs.Metrics.add Conjugate_gradient.cgls_iterations iterations;
    if events then
      emit "solver_done"
        [
          ("iterations", Obs.Field.Int iterations);
          ("relres", Obs.Field.Float relative_residual);
          ("converged", Obs.Field.Bool converged);
        ];
    if not converged then begin
      Obs.Metrics.incr m_nonconverged;
      Obs.Logger.warn Obs.Logger.default
        "iterative solver stopped before tolerance"
        ~fields:
          [
            ("solver", Obs.Field.Str "cgls");
            ("iterations", Obs.Field.Int iterations);
            ("relative_residual", Obs.Field.Float relative_residual);
          ];
      (* a starved or stalled solve is exactly the run the flight
         recorder exists for: dump the tail now in case the process
         never exits cleanly (no-op unless a dump path is configured) *)
      Obs.Recorder.auto_dump Obs.Recorder.default ~reason:"nonconvergence"
    end;
    stats
  in
  if ref_norm = 0. then
    (* Aᵀb = 0: x = 0 zeroes the normal-equations residual exactly, so it
       is a minimizer no iteration could improve *)
    (Vector.zeros n, stats_of ~iterations:0 ~residual_norm:0. ~converged:true)
  else begin
    let threshold = tol *. ref_norm in
    let p = Vector.copy s in
    let gamma = ref gamma0 in
    let iters = ref 0 in
    let continue_ = ref (sqrt gamma0 > threshold) in
    while !continue_ && !iters < max_iter do
      incr iters;
      let t0 = if timed then Obs.Clock.now_ns () else 0L in
      let q = apply p in
      let qq = Vector.dot q q in
      if qq <= 0. then
        (* p is in the null space: with the Krylov start this only
           happens at numerical exhaustion — stop where we are *)
        continue_ := false
      else begin
        let alpha = !gamma /. qq in
        Vector.axpy alpha p u;
        Vector.axpy (-.alpha) q r;
        let s = apply_t r in
        let gamma' = Vector.dot s s in
        if sqrt gamma' <= threshold then continue_ := false
        else begin
          let beta = gamma' /. !gamma in
          for i = 0 to n - 1 do
            p.(i) <- s.(i) +. (beta *. p.(i))
          done
        end;
        gamma := gamma'
      end;
      if timed then begin
        Obs.Metrics.observe m_relres (sqrt !gamma /. ref_norm);
        Obs.Metrics.observe m_iter_seconds (Obs.Clock.seconds_since t0)
      end;
      if events then
        emit "solver_iter"
          [
            ("iteration", Obs.Field.Int !iters);
            ("relres", Obs.Field.Float (sqrt !gamma /. ref_norm));
          ]
    done;
    let residual_norm = sqrt !gamma in
    let converged = residual_norm <= threshold in
    (solve_u u, stats_of ~iterations:!iters ~residual_norm ~converged)
  end
