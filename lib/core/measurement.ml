module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

type t = {
  r : Sparse.t;
  routing : Topology.Routing.reduced option;
  y_learn : Matrix.t;
  y_now : Linalg.Vector.t;
  probes : int;
  variances : Linalg.Vector.t option;
}

let make ?routing ?variances ?(probes = 1000) ~r ~y_learn ~y_now () =
  let np = Sparse.rows r in
  if Matrix.cols y_learn <> np then
    invalid_arg "Measurement.make: learning matrix width <> path count";
  if Array.length y_now <> np then
    invalid_arg "Measurement.make: target length <> path count";
  (match variances with
  | Some v when Array.length v <> Sparse.cols r ->
      invalid_arg "Measurement.make: variances length <> link count"
  | _ -> ());
  if probes <= 0 then invalid_arg "Measurement.make: probes <= 0";
  { r; routing; y_learn; y_now; probes; variances }

let delivered t =
  let s = float_of_int t.probes in
  Array.map
    (fun y ->
      if not (Float.is_finite y) then 0
      else
        let k = Float.round (s *. exp y) in
        int_of_float (Float.max 0. (Float.min s k)))
    t.y_now

let valid_target t =
  let keep = ref [] in
  for i = Array.length t.y_now - 1 downto 0 do
    if Float.is_finite t.y_now.(i) then keep := i :: !keep
  done;
  Array.of_list !keep
