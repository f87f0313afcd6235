module Matrix = Linalg.Matrix

type model = { mean : float array; std : float array }

(* keeps a zero-variance path from firing on any noise *)
let std_floor = 1e-4

(* standard deviations below baseline that make a path anomalous *)
let z_threshold = 3.

(* each path's moments over its usable cells, summed in row order (a
   complete column keeps [Descriptive.mean_vector]'s bits); a path with
   fewer than 2 has no baseline: a NaN mean never scores below -3 *)
let learn y =
  let m = Matrix.rows y in
  if m < 2 then invalid_arg "Anomaly.learn: need at least 2 snapshots";
  let moments =
    Array.init (Matrix.cols y) (fun i ->
        let cells =
          List.filter Quarantine.cell_valid
            (List.init m (fun l -> Matrix.get y l i))
        in
        let n = float_of_int (List.length cells) in
        if n < 2. then (Float.nan, std_floor)
        else
          let mu = List.fold_left ( +. ) 0. cells /. n in
          let sq s v = s +. ((v -. mu) *. (v -. mu)) in
          let ss = List.fold_left sq 0. cells in
          (mu, Float.max std_floor (sqrt (ss /. (n -. 1.)))))
  in
  { mean = Array.map fst moments; std = Array.map snd moments }

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
