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
    apply_t = (fun y -> Sparse.mul_transpose_vec m y);
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

(* CGLS in the stabilized two-term form (Björck): one apply and one
   apply_t per iteration, the normal-equations residual s = Aᵀr carried
   explicitly so the stopping test costs nothing extra.

   With [precond] the recurrence runs on à = A C⁻¹ (right
   preconditioning): every iterate u lives in the preconditioned
   coordinates and the returned solution is x = C⁻¹ u. With [x0] the
   start is u₀ = C x₀ instead of 0; the stopping reference stays
   ‖Ãᵀ b‖ — what the zero start would see — so warming up can only
   save iterations, never tighten the target. *)
let cgls ?(tol = 1e-10) ?max_iter ?x0 ?precond ?(context = []) op b =
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
  let u, r =
    match x0 with
    | None -> (Vector.zeros n, Vector.copy b)
    | Some x ->
        if Array.length x <> n then invalid_arg "Lsqr.cgls: x0 length mismatch";
        let u0 =
          match precond with None -> Vector.copy x | Some p -> Precond.mul p x
        in
        let u0 = if u0 == x then Vector.copy x else u0 in
        let r = Vector.copy b in
        Vector.axpy (-1.) (op.apply x) r;
        (u0, r)
  in
  let s = apply_t r in
  if Array.length s <> n then invalid_arg "Lsqr.cgls: apply_t dimension mismatch";
  let gamma0 = Vector.dot s s in
  let ref_norm =
    match x0 with None -> sqrt gamma0 | Some _ -> Vector.norm2 (apply_t b)
  in
  let probes = Conjugate_gradient.instrumented () in
  let solve_id = if probes then Conjugate_gradient.new_solve_id () else 0 in
  let context =
    if probes then context @ [ ("warm", Obs.Field.Bool (x0 <> None)) ]
    else context
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
    if probes then
      Conjugate_gradient.note_solve_done ~solver:"cgls" ~solve:solve_id ~context
        stats;
    if not converged then
      Conjugate_gradient.note_nonconvergence ~solver:"cgls" ~iterations
        ~relative_residual;
    stats
  in
  if ref_norm = 0. then
    (* Aᵀb = 0: x = 0 zeroes the normal-equations residual exactly, so it
       is a minimizer no iteration could improve *)
    (Vector.zeros n, stats_of ~iterations:0 ~residual_norm:0. ~converged:true)
  else if gamma0 = 0. then
    (* the start is already a least-squares minimizer (with the zero
       start: b orthogonal to the range) *)
    let x = match x0 with None -> Vector.zeros n | Some x -> Vector.copy x in
    (x, stats_of ~iterations:0 ~residual_norm:0. ~converged:true)
  else begin
    let threshold = tol *. ref_norm in
    let p = Vector.copy s in
    let gamma = ref gamma0 in
    let iters = ref 0 in
    let continue_ = ref (sqrt gamma0 > threshold) in
    while !continue_ && !iters < max_iter do
      incr iters;
      let t0 = if probes then Obs.Clock.now_ns () else 0L in
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
      if probes then
        Conjugate_gradient.note_iteration ~solver:"cgls" ~solve:solve_id
          ~iteration:!iters
          ~relative_residual:(sqrt !gamma /. ref_norm)
          ~iter_seconds:(Obs.Clock.seconds_since t0)
          ~context
    done;
    let residual_norm = sqrt !gamma in
    let converged = residual_norm <= threshold in
    (solve_u u, stats_of ~iterations:!iters ~residual_norm ~converged)
  end
