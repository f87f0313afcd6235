(* The materialized-A Phase-1 solve, kept as the test oracle for the
   library's estimators, which never form A: the least-squares solution
   of Σ̂* = A v (eq. 8) over an explicit augmented matrix (Definition 1,
   Augmented.build) and an explicit Σ̂* (eq. 7, Covariance.sigma_star),
   through the sparse normal equations or, as in the paper, a dense
   Householder QR.

   The default stays the regularized normal equations: the drop-negative
   rule can cost A column rank (on test_estimators' 80-node tree, seed
   11, 25 snapshots, it leaves rank 78 of 79), and Qr.solve raises on
   such a system. *)

module Sparse = Linalg.Sparse
module Qr = Linalg.Qr

type method_ = Normal_equations | Dense_qr

type options = { method_ : method_; drop_negative : bool; clamp : bool }

let default_options =
  { method_ = Normal_equations; drop_negative = true; clamp = true }

let solve ?(options = default_options) ?jobs ~a ~sigma_star () =
  if Array.length sigma_star <> Sparse.rows a then
    invalid_arg "Variance_estimator.solve: rhs length mismatch";
  let a, rhs =
    if options.drop_negative then begin
      let keep = ref [] in
      Array.iteri (fun k s -> if s >= 0. then keep := k :: !keep) sigma_star;
      let idx = Array.of_list (List.rev !keep) in
      (Sparse.select_rows a idx, Array.map (fun k -> sigma_star.(k)) idx)
    end
    else (a, sigma_star)
  in
  let v =
    match options.method_ with
    | Normal_equations -> Sparse.least_squares ?jobs a rhs
    | Dense_qr -> Qr.solve (Sparse.to_dense a) rhs
  in
  if options.clamp then Array.map (fun x -> Float.max 0. x) v else v

(* [solve] over the A and Σ̂* built from a routing matrix and a snapshot
   matrix *)
let estimate ?options ~r ~y () =
  solve ?options ~a:(Core.Augmented.build r)
    ~sigma_star:(Core.Covariance.sigma_star y) ()
