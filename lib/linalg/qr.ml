module Pool = Parallel.Pool
module Chunk = Parallel.Chunk

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

(* Distinct columns touch disjoint state, so the trailing update can run
   one column per pool task; blocks are sized so each carries a few
   thousand flops whatever the column height. Column j's arithmetic is
   independent of which domain runs it — bit-for-bit jobs-invariant. *)
let update_trailing ?jobs a m n k beta =
  let cols = n - k - 1 in
  if cols > 0 then
    Pool.parallel_for ?jobs
      ~min_block:(max 8 (4096 / (max 1 (m - k))))
      ~n:cols
      (fun t -> apply_house_to_col a m n k beta (k + 1 + t))

let factorize_gen ?jobs ~pivot mat =
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
    if b <> 0. then update_trailing ?jobs a m n k b;
    if pivot then
      for j = k + 1 to n - 1 do
        let rkj = get a n k j in
        colnorm2.(j) <- Float.max 0. (colnorm2.(j) -. (rkj *. rkj))
      done
  done;
  { m; n; a; beta; piv }

let factorize ?jobs mat = factorize_gen ?jobs ~pivot:false mat

let factorize_pivoted ?jobs mat = factorize_gen ?jobs ~pivot:true mat

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

let default_solve_rtol = 1e-13

let check_solvable ~rtol f =
  if f.m < f.n then failwith "Qr.solve_r: underdetermined system";
  let dmax = max_abs_diag f in
  for i = 0 to f.n - 1 do
    if negligible ~rtol ~dmax (get f.a f.n i i) then
      failwith "Qr.solve_r: singular triangular factor"
  done

let solve_r ?(rtol = default_solve_rtol) f c =
  let n = f.n in
  if f.m < n then failwith "Qr.solve_r: underdetermined system";
  if Array.length c < n then invalid_arg "Qr.solve_r: dimension mismatch";
  check_solvable ~rtol f;
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

(* Batched right-hand sides. The work matrix keeps one RHS per column, so
   a reflector pass scans contiguous rows once for the whole column slice
   instead of once per RHS; slices of at least 8 columns keep every
   fetched cache line fully used. Per column the arithmetic and its order
   are exactly those of [apply_qt] + [solve_r], and each task owns a
   disjoint column range, so column c of the result is bit-for-bit
   [least_squares f (Matrix.col b c)] for every [jobs] value. *)
let least_squares_batch ?(rtol = default_solve_rtol) ?jobs f b =
  if Matrix.rows b <> f.m then
    invalid_arg "Qr.least_squares_batch: dimension mismatch";
  check_solvable ~rtol f;
  let n = f.n and m = f.m in
  let nrhs = Matrix.cols b in
  let w = flat b in
  let x = Array.make (n * nrhs) 0. in
  let steps = Array.length f.beta in
  let solve_slice clo chi =
    let width = chi - clo in
    let s = Array.make (max width 0) 0. in
    (* Qᵀ applied to every column of the slice, reflector by reflector *)
    for k = 0 to steps - 1 do
      let beta = f.beta.(k) in
      if beta <> 0. then begin
        for c = 0 to width - 1 do
          Array.unsafe_set s c (get w nrhs k (clo + c))
        done;
        for i = k + 1 to m - 1 do
          let v = get f.a n i k in
          for c = 0 to width - 1 do
            Array.unsafe_set s c
              (Array.unsafe_get s c +. (v *. get w nrhs i (clo + c)))
          done
        done;
        for c = 0 to width - 1 do
          let sc = beta *. Array.unsafe_get s c in
          Array.unsafe_set s c sc;
          set w nrhs k (clo + c) (get w nrhs k (clo + c) -. sc)
        done;
        for i = k + 1 to m - 1 do
          let v = get f.a n i k in
          for c = 0 to width - 1 do
            set w nrhs i (clo + c)
              (get w nrhs i (clo + c) -. (Array.unsafe_get s c *. v))
          done
        done
      end
    done;
    (* back-substitution on the leading n×n block of R, per column *)
    for i = n - 1 downto 0 do
      let d = get f.a n i i in
      for c = 0 to width - 1 do
        let acc = ref (get w nrhs i (clo + c)) in
        for j = i + 1 to n - 1 do
          acc := !acc -. (get f.a n i j *. get x nrhs j (clo + c))
        done;
        set x nrhs i (clo + c) (!acc /. d)
      done
    done
  in
  let blocks = Chunk.block_count ~min_block:8 nrhs in
  if blocks > 0 then
    Pool.for_blocks ?jobs blocks (fun bk ->
        let clo, chi = Chunk.range ~blocks ~n:nrhs bk in
        solve_slice clo chi);
  (* undo the column pivoting (identity for unpivoted factorizations) *)
  let out = Matrix.zeros n nrhs in
  for j = 0 to n - 1 do
    Matrix.set_row out f.piv.(j) (Array.sub x (j * nrhs) nrhs)
  done;
  out

let matrix_rank ?rtol mat = rank ?rtol (factorize_pivoted mat)

let solve ?rtol ?jobs mat b = least_squares ?rtol (factorize ?jobs mat) b
