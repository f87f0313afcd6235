module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

type t = {
  r : Sparse.t;
  routing : Topology.Routing.reduced option;
  y_learn : Matrix.t;
  y_now : Linalg.Vector.t;
  probes : int;
}

let make ?routing ?(probes = 1000) ~r ~y_learn ~y_now () =
  let np = Sparse.rows r in
  if Matrix.cols y_learn <> np then
    invalid_arg "Measurement.make: learning matrix width <> path count";
  if Array.length y_now <> np then
    invalid_arg "Measurement.make: target length <> path count";
  if probes <= 0 then invalid_arg "Measurement.make: probes <= 0";
  { r; routing; y_learn; y_now; probes }

let delivered ~probes y =
  let s = float_of_int probes in
  Array.map
    (fun y ->
      if not (Float.is_finite y) then 0
      else
        let k = Float.round (s *. exp y) in
        int_of_float (Float.max 0. (Float.min s k)))
    y
