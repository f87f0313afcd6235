module Matrix = Linalg.Matrix

type model = { mean : float array; std : float array }

(* keeps a zero-variance path from firing on any noise *)
let std_floor = 1e-4

(* standard deviations below baseline that make a path anomalous *)
let z_threshold = 3.

let learn y =
  let m = Matrix.rows y and np = Matrix.cols y in
  if m < 2 then invalid_arg "Anomaly.learn: need at least 2 snapshots";
  let mean = Nstats.Descriptive.mean_vector y in
  let std =
    Array.init np (fun i ->
        let acc = ref 0. in
        for l = 0 to m - 1 do
          let d = Matrix.get y l i -. mean.(i) in
          acc := !acc +. (d *. d)
        done;
        Float.max std_floor (sqrt (!acc /. float_of_int (m - 1))))
  in
  { mean; std }

(* standardized residuals; negative = worse than baseline *)
let path_scores model ~y_now =
  if Array.length y_now <> Array.length model.mean then
    invalid_arg "Anomaly.path_scores: length mismatch";
  Array.mapi (fun i y -> (y -. model.mean.(i)) /. model.std.(i)) y_now

let anomalous_paths model ~y_now =
  Array.map (fun z -> z < -.z_threshold) (path_scores model ~y_now)

let detect model ~r ~y_now =
  let paths = anomalous_paths model ~y_now in
  (paths, Scfs.infer r ~bad_paths:paths)
