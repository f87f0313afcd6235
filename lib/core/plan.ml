module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Cholesky = Linalg.Cholesky

type result = {
  variances : float array;
  transmission : float array;
  loss_rates : float array;
  kept : int array;
  removed : int array;
}

type backend =
  | Dense_qr
  | Cgls of {
      tol : float;
      max_iter : int option;
      precond : Variance_estimator.precond_spec;
    }

(* the factored system behind a plan: the sparse R* with the ordered
   Cholesky factor of R*ᵀR*, or the sparse R* kept implicit behind CGLS
   (with an optional preconditioner factored once at plan-build time) *)
type fact =
  | Direct of { r_star : Sparse.t; factor : Cholesky.ordered }
  | Iterative of {
      op : Linalg.Lsqr.operator;
      tol : float;
      max_iter : int option;
      precond : Linalg.Precond.t option;
      context : (string * Obs.Field.t) list;
          (* telemetry labels for every solve against this plan *)
    }

type t = {
  np : int;
  nc : int;
  variances : float array;
  kept : int array;
  removed : int array;
  backend : backend;
  fact : fact;
}

let m_build =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per inference-plan build (rank reduction + factor)"
    "plan_build_seconds"

let m_solve =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per snapshot solved through a plan (batch solves \
           contribute their per-snapshot average)"
    "plan_solve_snapshot_seconds"

let g_rank =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Columns kept by the most recent plan build" "plan_rank"

let g_deleted =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Columns eliminated by the most recent plan build"
    "plan_deleted_columns"

let make ?jobs ?(backend = Dense_qr) ~r ~variances () =
  let nc = Sparse.cols r and np = Sparse.rows r in
  if Array.length variances <> nc then
    invalid_arg "Lia: variance length mismatch";
  Obs.Event.kernel ~hist:m_build
    ~fields:[ ("np", Obs.Field.Int np); ("nc", Obs.Field.Int nc) ]
    "plan.build"
  @@ fun () ->
  let { Rank_reduction.kept; removed } = Rank_reduction.eliminate r variances in
  (* columns renumbered in kept order: solutions index like [kept] *)
  let r_star = Sparse.select_cols r kept in
  let fact =
    match backend with
    | Dense_qr -> (
        (* R* has exact full column rank, so R*ᵀR* is positive definite
           but for rounding: no ridge *)
        match
          Cholesky.factorize_ordered Cholesky.factorize
            (Sparse.gram_lower ?jobs r_star)
        with
        | factor -> Direct { r_star; factor }
        | exception Cholesky.Not_positive_definite ->
            failwith "Plan.make: R*ᵀR* is not positive definite to working \
                      precision")
    | Cgls { tol; max_iter; precond } ->
        let k = Array.length kept in
        let pc =
          match precond with
          | Variance_estimator.Pc_none -> None
          | Variance_estimator.Pc_jacobi ->
              let counts =
                Array.map float_of_int (Sparse.column_counts r_star)
              in
              Some (Linalg.Precond.jacobi counts)
          | Variance_estimator.Pc_block_jacobi groups ->
              (* groups are in original column numbering; keep only the
                 surviving columns, renumbered to their kept position *)
              let pos = Array.make nc (-1) in
              Array.iteri (fun t j -> pos.(j) <- t) kept;
              let blocks =
                Array.to_list groups
                |> List.filter_map (fun g ->
                       let local =
                         Array.of_list
                           (List.filter_map
                              (fun j ->
                                if pos.(j) >= 0 then Some pos.(j) else None)
                              (Array.to_list g))
                       in
                       if Array.length local = 0 then None
                       else begin
                         Array.sort Int.compare local;
                         Some (local, Sparse.gram_block r_star local)
                       end)
                |> Array.of_list
              in
              Some (Linalg.Precond.block_jacobi ?jobs ~cols:k blocks)
        in
        let pc_name =
          match precond with
          | Variance_estimator.Pc_none -> "none"
          | Variance_estimator.Pc_jacobi -> "jacobi"
          | Variance_estimator.Pc_block_jacobi _ -> "block_jacobi"
        in
        Iterative
          {
            op = Linalg.Lsqr.of_sparse r_star;
            tol;
            max_iter;
            precond = pc;
            context =
              [
                ("phase", Obs.Field.Str "phase2");
                ("precond", Obs.Field.Str pc_name);
              ];
          }
  in
  Obs.Metrics.set g_rank (float_of_int (Array.length kept));
  Obs.Metrics.set g_deleted (float_of_int (Array.length removed));
  { np; nc; variances = Array.copy variances; kept; removed; backend; fact }

let rank p = Array.length p.kept

let kept p = Array.copy p.kept

let removed p = Array.copy p.removed

let variances p = Array.copy p.variances

let backend p = p.backend

let result_of_x p x_star =
  let transmission = Array.make p.nc 1. in
  Array.iteri
    (fun k j ->
      (* x is a log transmission rate; numerical noise can push it above 0 *)
      transmission.(j) <- Float.min 1. (exp x_star.(k)))
    p.kept;
  let loss_rates = Array.map (fun t -> 1. -. t) transmission in
  {
    variances = Array.copy p.variances;
    transmission;
    loss_rates;
    kept = Array.copy p.kept;
    removed = Array.copy p.removed;
  }

let least_squares p y_now =
  match p.fact with
  | Direct { r_star; factor } ->
      Cholesky.solve_ordered_vec factor (Sparse.tmul_vec r_star y_now)
  | Iterative { op; tol; max_iter; precond; context } ->
      fst (Linalg.Lsqr.cgls ~tol ?max_iter ?precond ~context op y_now)

let solve p y_now =
  if Array.length y_now <> p.np then invalid_arg "Lia: measurement length mismatch";
  Obs.Event.kernel ~hist:m_solve "plan.solve" @@ fun () ->
  result_of_x p (least_squares p y_now)

let solve_batch ?jobs p y =
  if Matrix.cols y <> p.np then invalid_arg "Lia: measurement length mismatch";
  let snapshots = Matrix.rows y in
  Obs.Event.span ~fields:[ ("snapshots", Obs.Field.Int snapshots) ]
    "plan.solve_batch"
  @@ fun () ->
  let t0 =
    if Obs.Metrics.enabled Obs.Metrics.default then Obs.Clock.now_ns () else 0L
  in
  (* snapshots are independent solves; each output slot is written by
     exactly one index, so the batch is bit-for-bit [solve] per row for
     every [jobs] value *)
  let out = Array.make snapshots (result_of_x p (Array.make (rank p) 0.)) in
  Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n:snapshots (fun l ->
      out.(l) <- result_of_x p (least_squares p (Matrix.row y l)));
  if Obs.Metrics.enabled Obs.Metrics.default && snapshots > 0 then begin
    (* the batch is timed as one pass; attribute the per-snapshot
       average to each so the histogram stays per-snapshot *)
    let per = Obs.Clock.seconds_since t0 /. float_of_int snapshots in
    for _ = 1 to snapshots do
      Obs.Metrics.observe m_solve per
    done
  end;
  out
