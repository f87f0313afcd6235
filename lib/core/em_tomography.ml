module Sparse = Linalg.Sparse

type result = { transmission : float array; log_likelihood : float; sweeps : int }

let log_likelihood r ~delivered ~probes t =
  let np = Sparse.rows r in
  if Array.length delivered <> np then
    invalid_arg "Em_tomography.log_likelihood: delivery length mismatch";
  if Array.length t <> Sparse.cols r then
    invalid_arg "Em_tomography.log_likelihood: rate length mismatch";
  let acc = ref 0. in
  for i = 0 to np - 1 do
    let p =
      Array.fold_left (fun acc j -> acc *. t.(j)) 1. (Sparse.row r i)
    in
    let p = Float.max 1e-12 (Float.min (1. -. 1e-12) p) in
    let k = float_of_int delivered.(i) and s = float_of_int probes in
    acc := !acc +. (k *. log p) +. ((s -. k) *. log (1. -. p))
  done;
  !acc

(* the ascent starts every link at [init] and stops once a sweep gains
   less than [tol] (relative) in likelihood, or after [max_sweeps] *)
let init = 0.99

let tol = 1e-7

let max_sweeps = 200

let estimate r ~delivered ~probes =
  let np = Sparse.rows r and nc = Sparse.cols r in
  if Array.length delivered <> np then
    invalid_arg "Em_tomography.estimate: delivery length mismatch";
  if probes <= 0 then invalid_arg "Em_tomography.estimate: probes <= 0";
  Array.iter
    (fun k ->
      if k < 0 || k > probes then
        invalid_arg "Em_tomography.estimate: delivery count out of range")
    delivered;
  let t = Array.make nc init in
  let cols = Sparse.transpose r in
  (* per-path product of current rates, maintained incrementally *)
  let prod = Array.make np 1. in
  for i = 0 to np - 1 do
    Array.iter (fun j -> prod.(i) <- prod.(i) *. t.(j)) (Sparse.row r i)
  done;
  let s = float_of_int probes in
  (* derivative of the likelihood in t_j at value x, given leave-one-out
     coefficients c_i for the paths through j *)
  let derivative paths_through c x =
    let acc = ref 0. in
    Array.iteri
      (fun idx i ->
        let k = float_of_int delivered.(i) in
        let ci = c.(idx) in
        let denom = Float.max 1e-12 (1. -. (x *. ci)) in
        acc := !acc +. (k /. x) -. ((s -. k) *. ci /. denom))
      paths_through;
    !acc
  in
  let sweeps = ref 0 in
  let ll = ref (log_likelihood r ~delivered ~probes t) in
  let continue_ = ref true in
  while !continue_ && !sweeps < max_sweeps do
    incr sweeps;
    for j = 0 to nc - 1 do
      let paths_through = Sparse.row cols j in
      if Array.length paths_through > 0 then begin
        let c =
          Array.map (fun i -> prod.(i) /. Float.max 1e-12 t.(j)) paths_through
        in
        let cmax = Array.fold_left Float.max 0. c in
        let hi = Float.min (1. -. 1e-9) (if cmax > 0. then 1. /. cmax -. 1e-9 else 1.) in
        let lo = 1e-6 in
        let x =
          if derivative paths_through c hi >= 0. then hi
          else if derivative paths_through c lo <= 0. then lo
          else begin
            (* bisection on the concave derivative *)
            let a = ref lo and b = ref hi in
            for _ = 1 to 50 do
              let mid = 0.5 *. (!a +. !b) in
              if derivative paths_through c mid > 0. then a := mid else b := mid
            done;
            0.5 *. (!a +. !b)
          end
        in
        (* update the cached products *)
        Array.iteri
          (fun idx i -> prod.(i) <- c.(idx) *. x)
          paths_through;
        t.(j) <- x
      end
    done;
    let ll' = log_likelihood r ~delivered ~probes t in
    if ll' -. !ll < tol *. (1. +. Float.abs !ll) then continue_ := false;
    ll := ll'
  done;
  { transmission = t; log_likelihood = !ll; sweeps = !sweeps }
