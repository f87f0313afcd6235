type t = float array

let create n x =
  if n < 0 then invalid_arg "Vector.create: negative dimension";
  Array.make n x

let zeros n = create n 0.

let copy = Array.copy

let of_list = Array.of_list

let check_same_dim name x y =
  if Array.length x <> Array.length y then
    invalid_arg (name ^ ": dimension mismatch")

let add x y =
  check_same_dim "Vector.add" x y;
  Array.mapi (fun i xi -> xi +. y.(i)) x

let sub x y =
  check_same_dim "Vector.sub" x y;
  Array.mapi (fun i xi -> xi -. y.(i)) x

let scale a x = Array.map (fun xi -> a *. xi) x

let axpy a x y =
  check_same_dim "Vector.axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- (a *. x.(i)) +. y.(i)
  done

let dot x y =
  check_same_dim "Vector.dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

(* Scaled two-norm: factor out the largest magnitude so that squaring never
   overflows or underflows to zero for representable inputs. *)
let norm2 x =
  let scale_max = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0. x in
  if scale_max = 0. || Float.is_nan scale_max then scale_max
  else begin
    let acc = ref 0. in
    for i = 0 to Array.length x - 1 do
      let r = x.(i) /. scale_max in
      acc := !acc +. (r *. r)
    done;
    scale_max *. sqrt !acc
  end

let norm_inf x = Array.fold_left (fun m xi -> Float.max m (Float.abs xi)) 0. x

let dist2 x y =
  check_same_dim "Vector.dist2" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    let d = x.(i) -. y.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

let hadamard x y =
  check_same_dim "Vector.hadamard" x y;
  Array.mapi (fun i xi -> xi *. y.(i)) x

let sum x = Array.fold_left ( +. ) 0. x

let mean x =
  if Array.length x = 0 then invalid_arg "Vector.mean: empty vector";
  sum x /. float_of_int (Array.length x)

let extreme_index name better x =
  if Array.length x = 0 then invalid_arg name;
  let best = ref 0 in
  for i = 1 to Array.length x - 1 do
    if better x.(i) x.(!best) then best := i
  done;
  !best

let max_index x = extreme_index "Vector.max_index: empty vector" ( > ) x

let min_index x = extreme_index "Vector.min_index: empty vector" ( < ) x

let sort_indices ?(descending = false) x =
  let idx = Array.init (Array.length x) (fun i -> i) in
  let cmp i j =
    let c = Float.compare x.(i) x.(j) in
    let c = if descending then -c else c in
    if c <> 0 then c else Int.compare i j
  in
  Array.sort cmp idx;
  idx

let approx_equal ?(tol = 1e-9) x y =
  Array.length x = Array.length y
  && begin
       let ok = ref true in
       for i = 0 to Array.length x - 1 do
         if Float.abs (x.(i) -. y.(i)) > tol then ok := false
       done;
       !ok
     end

let pp ppf x =
  Format.fprintf ppf "[@[";
  Array.iteri
    (fun i xi ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.6g" xi)
    x;
  Format.fprintf ppf "@]]"
