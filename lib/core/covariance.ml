module Matrix = Linalg.Matrix

let m_sigma_star =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per sigma-star covariance flattening (eq. 7)"
    "lia_sigma_star_seconds"

(* same counter the Phase-1 estimators feed with the pairs they list;
   registration by name is idempotent, which avoids a cyclic module
   reference. Σ̂* holds every pair of the triangle, so it adds them all. *)
let m_pairs =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Path pairs swept by the phase-1 kernels" "lia_pairs_total"

let sigma_star ?jobs y =
  let np = Matrix.cols y in
  Obs.Metrics.add m_pairs (Augmented.row_count ~np);
  Obs.Event.kernel ~hist:m_sigma_star
    ~fields:[ ("np", Obs.Field.Int np); ("m", Obs.Field.Int (Matrix.rows y)) ]
    "covariance.sigma_star"
  @@ fun () ->
  let sigma = Nstats.Descriptive.covariance_matrix ?jobs y in
  Array.init (Augmented.row_count ~np) (fun k ->
      let i, j = Augmented.row_pair ~np k in
      Matrix.get sigma i j)

let of_sigma_matrix sigma =
  let np = Matrix.rows sigma in
  if Matrix.cols sigma <> np then
    invalid_arg "Covariance.of_sigma_matrix: not square";
  Array.init (Augmented.row_count ~np) (fun k ->
      let i, j = Augmented.row_pair ~np k in
      Matrix.get sigma i j)
