type t = {
  m : int;
  n : int;
  a : float array;
      (* m × n, row-major: R in and above the diagonal, Householder
         vectors below *)
  beta : float array; (* Householder coefficients, one per reflection *)
  piv : int array; (* piv.(j) = original index of factored column j *)
}

(* Every kernel here indexes row-major float arrays of width [w] through
   these two. They are monomorphic and local so that they inline to a
   plain float load or store: a call into [Matrix] per entry (which the
   compiler cannot inline across the library's modules) or a
   polymorphic accessor boxes every float it returns. *)
let get (a : float array) w i j = Array.unsafe_get a ((i * w) + j) [@@inline]

let set (a : float array) w i j (x : float) = Array.unsafe_set a ((i * w) + j) x
[@@inline]

(* the row-major payload of [mat], copied *)
let flat mat =
  let rows = Matrix.rows mat and cols = Matrix.cols mat in
  let a = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    Array.blit (Matrix.row mat i) 0 a (i * cols) cols
  done;
  a

(* Build the Householder reflection annihilating a.(k+1..m-1, k); store the
   vector below the diagonal with the implicit convention v.(k) = 1. *)
let house_column a m n k =
  let alpha = ref 0. in
  for i = k to m - 1 do
    let x = get a n i k in
    alpha := !alpha +. (x *. x)
  done;
  let alpha = sqrt !alpha in
  if alpha = 0. then 0.
  else begin
    let akk = get a n k k in
    let alpha = if akk > 0. then -.alpha else alpha in
    let v0 = akk -. alpha in
    (* v = x - alpha e1; normalize so v.(k) = 1 *)
    if v0 = 0. then 0.
    else begin
      for i = k + 1 to m - 1 do
        set a n i k (get a n i k /. v0)
      done;
      let vtv = ref 1. in
      for i = k + 1 to m - 1 do
        let v = get a n i k in
        vtv := !vtv +. (v *. v)
      done;
      set a n k k alpha;
      2. /. !vtv
    end
  end

let apply_house_to_col a m n k beta j =
  (* column j of the trailing matrix: x <- x - beta v (v' x) *)
  let vtx = ref (get a n k j) in
  for i = k + 1 to m - 1 do
    vtx := !vtx +. (get a n i k *. get a n i j)
  done;
  let s = beta *. !vtx in
  set a n k j (get a n k j -. s);
  for i = k + 1 to m - 1 do
    set a n i j (get a n i j -. (s *. get a n i k))
  done

let factorize_gen ~pivot mat =
  let m = Matrix.rows mat and n = Matrix.cols mat in
  let a = flat mat in
  let steps = min m n in
  let beta = Array.make (max steps 0) 0. in
  let piv = Array.init n (fun j -> j) in
  let colnorm2 =
    if pivot then
      Array.init n (fun j -> Vector.dot (Matrix.col mat j) (Matrix.col mat j))
    else [||]
  in
  let swap_cols j1 j2 =
    if j1 <> j2 then begin
      for i = 0 to m - 1 do
        let x = get a n i j1 in
        set a n i j1 (get a n i j2);
        set a n i j2 x
      done;
      let p = piv.(j1) in
      piv.(j1) <- piv.(j2);
      piv.(j2) <- p;
      let c = colnorm2.(j1) in
      colnorm2.(j1) <- colnorm2.(j2);
      colnorm2.(j2) <- c
    end
  in
  for k = 0 to steps - 1 do
    if pivot then begin
      let best = ref k in
      for j = k + 1 to n - 1 do
        if colnorm2.(j) > colnorm2.(!best) then best := j
      done;
      swap_cols k !best
    end;
    let b = house_column a m n k in
    beta.(k) <- b;
    if b <> 0. then
      for j = k + 1 to n - 1 do
        apply_house_to_col a m n k b j
      done;
    if pivot then
      for j = k + 1 to n - 1 do
        let rkj = get a n k j in
        colnorm2.(j) <- Float.max 0. (colnorm2.(j) -. (rkj *. rkj))
      done
  done;
  { m; n; a; beta; piv }

let factorize mat = factorize_gen ~pivot:false mat

let factorize_pivoted mat = factorize_gen ~pivot:true mat

let pivots f = Array.copy f.piv

let r f =
  let k = min f.m f.n in
  Matrix.init k f.n (fun i j -> if j >= i then get f.a f.n i j else 0.)

(* Every tolerance decision in this module is relative to the largest
   diagonal magnitude of R; [rank] and [solve_r] differ only in their
   default rtol. *)
let max_abs_diag f =
  let k = min f.m f.n in
  let dmax = ref 0. in
  for i = 0 to k - 1 do
    dmax := Float.max !dmax (Float.abs (get f.a f.n i i))
  done;
  !dmax

let negligible ~rtol ~dmax d = d = 0. || Float.abs d <= rtol *. dmax

let rank ?(rtol = 1e-10) f =
  let k = min f.m f.n in
  let dmax = max_abs_diag f in
  if dmax = 0. then 0
  else begin
    let cnt = ref 0 in
    for i = 0 to k - 1 do
      if not (negligible ~rtol ~dmax (get f.a f.n i i)) then incr cnt
    done;
    !cnt
  end

let apply_qt f b =
  if Array.length b <> f.m then invalid_arg "Qr.apply_qt: dimension mismatch";
  let y = Array.copy b in
  for k = 0 to Array.length f.beta - 1 do
    let beta = f.beta.(k) in
    if beta <> 0. then begin
      let vty = ref (Array.unsafe_get y k) in
      for i = k + 1 to f.m - 1 do
        vty := !vty +. (get f.a f.n i k *. Array.unsafe_get y i)
      done;
      let s = beta *. !vty in
      Array.unsafe_set y k (Array.unsafe_get y k -. s);
      for i = k + 1 to f.m - 1 do
        Array.unsafe_set y i
          (Array.unsafe_get y i -. (s *. get f.a f.n i k))
      done
    end
  done;
  y

let solve_r ?(rtol = 1e-13) f c =
  let n = f.n in
  if f.m < n then failwith "Qr.solve_r: underdetermined system";
  if Array.length c < n then invalid_arg "Qr.solve_r: dimension mismatch";
  let dmax = max_abs_diag f in
  for i = 0 to n - 1 do
    if negligible ~rtol ~dmax (get f.a n i i) then
      failwith "Qr.solve_r: singular triangular factor"
  done;
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let d = get f.a n i i in
    let acc = ref (Array.unsafe_get c i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (get f.a n i j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!acc /. d)
  done;
  x

let least_squares ?rtol f b =
  let qtb = apply_qt f b in
  let x = solve_r ?rtol f qtb in
  let out = Array.make f.n 0. in
  for j = 0 to f.n - 1 do
    out.(f.piv.(j)) <- x.(j)
  done;
  out

let matrix_rank ?rtol mat = rank ?rtol (factorize_pivoted mat)

let solve ?rtol mat b = least_squares ?rtol (factorize mat) b
