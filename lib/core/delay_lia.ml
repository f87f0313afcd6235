module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

type result = {
  variances : float array;
  queueing : float array;
  kept : int array;
  removed : int array;
}

let baselines y_learn =
  let m = Matrix.rows y_learn and np = Matrix.cols y_learn in
  if m = 0 then invalid_arg "Delay_lia.baselines: no snapshots";
  Array.init np (fun i ->
      let best = ref (Matrix.get y_learn 0 i) in
      for l = 1 to m - 1 do
        best := Float.min !best (Matrix.get y_learn l i)
      done;
      !best)

let infer ~r ~y_learn ~y_now =
  let np = Sparse.rows r and nc = Sparse.cols r in
  if Matrix.cols y_learn <> np then
    invalid_arg "Delay_lia: learning matrix width mismatch";
  if Array.length y_now <> np then invalid_arg "Delay_lia: measurement length mismatch";
  (* Phase 1: delay variances, same second-moment system as losses *)
  let variances = Variance_estimator.estimate ~r ~y:y_learn () in
  (* Phase 2 on the queueing excess over per-path baselines *)
  let base = baselines y_learn in
  let excess = Array.mapi (fun i y -> Float.max 0. (y -. base.(i))) y_now in
  let plan = Plan.make ~r ~variances () in
  let q_star = Plan.least_squares plan excess and kept = Plan.kept plan in
  let queueing = Array.make nc 0. in
  Array.iteri (fun k j -> queueing.(j) <- Float.max 0. q_star.(k)) kept;
  { variances; queueing; kept; removed = Plan.removed plan }

let congested result ~threshold =
  Array.map (fun q -> q > threshold) result.queueing
