module Matrix = Linalg.Matrix

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let mu = mean xs in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        let d = x -. mu in
        acc := !acc +. (d *. d))
      xs;
    !acc /. float_of_int (n - 1)
  end

let std xs = sqrt (variance xs)

let covariance xs ys =
  let n = Array.length xs in
  if n <> Array.length ys then invalid_arg "Descriptive.covariance: length mismatch";
  if n < 2 then 0.
  else begin
    let mx = mean xs and my = mean ys in
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := !acc +. ((xs.(i) -. mx) *. (ys.(i) -. my))
    done;
    !acc /. float_of_int (n - 1)
  end

let correlation xs ys =
  let sx = std xs and sy = std ys in
  if sx = 0. || sy = 0. then 0. else covariance xs ys /. (sx *. sy)

(* mid-ranks: ties get the average of the ranks they span *)
let midranks xs =
  let n = Array.length xs in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun a b -> Float.compare xs.(a) xs.(b)) order;
  let ranks = Array.make n 0. in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(order.(!j + 1)) = xs.(order.(!i)) do
      incr j
    done;
    let avg = float_of_int (!i + !j + 2) /. 2. in
    for k = !i to !j do
      ranks.(order.(k)) <- avg
    done;
    i := !j + 1
  done;
  ranks

let spearman xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg "Descriptive.spearman: length mismatch";
  correlation (midranks xs) (midranks ys)

let minimum xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.minimum: empty sample";
  Array.fold_left Float.min xs.(0) xs

let maximum xs =
  if Array.length xs = 0 then invalid_arg "Descriptive.maximum: empty sample";
  Array.fold_left Float.max xs.(0) xs

let quantile xs q =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Descriptive.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Descriptive.quantile: q out of [0,1]";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let h = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor h) in
  let hi = min (lo + 1) (n - 1) in
  let frac = h -. float_of_int lo in
  sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let median xs = quantile xs 0.5

let mean_vector obs =
  let m = Matrix.rows obs and p = Matrix.cols obs in
  if m = 0 then invalid_arg "Descriptive.mean_vector: no observations";
  let mu = Array.make p 0. in
  for i = 0 to m - 1 do
    for j = 0 to p - 1 do
      mu.(j) <- mu.(j) +. Matrix.get obs i j
    done
  done;
  Array.map (fun s -> s /. float_of_int m) mu
