type block = { idx : int array; lower : Matrix.t }

type kind =
  | Identity
  | Diag of Vector.t (* reciprocal scales: C⁻¹ = diag(w) *)
  | Blocks of { jobs : int option; blocks : block array }

type t = { n : int; kind : kind }

let cols p = p.n

let block_count p =
  match p.kind with
  | Identity -> 0
  | Diag _ -> 1
  | Blocks { blocks; _ } -> Array.length blocks

let identity n =
  if n < 0 then invalid_arg "Precond.identity: negative dimension";
  { n; kind = Identity }

let jacobi d =
  Array.iter
    (fun x ->
      if not (Float.is_finite x) || x < 0. then
        invalid_arg "Precond.jacobi: diagonal entries must be finite and >= 0")
    d;
  (* the reciprocal roots are the stored representation so that applying
     the preconditioner multiplies — bit-for-bit the historical
     [Lsqr.scaled_columns] arithmetic *)
  let w = Array.map (fun c -> 1. /. sqrt (Float.max 1. c)) d in
  { n = Array.length d; kind = Diag w }

let block_jacobi ?jobs ~cols blocks =
  if cols < 0 then invalid_arg "Precond.block_jacobi: negative dimension";
  let covered = Array.make cols false in
  Array.iter
    (fun (idx, g) ->
      let s = Array.length idx in
      if s = 0 then invalid_arg "Precond.block_jacobi: empty group";
      if Matrix.rows g <> s || Matrix.cols g <> s then
        invalid_arg "Precond.block_jacobi: block dimension mismatch";
      Array.iteri
        (fun t j ->
          if j < 0 || j >= cols then
            invalid_arg "Precond.block_jacobi: column index out of range";
          if covered.(j) then
            invalid_arg "Precond.block_jacobi: overlapping groups";
          if t > 0 && idx.(t - 1) >= j then
            invalid_arg "Precond.block_jacobi: group indices not increasing";
          covered.(j) <- true)
        idx)
    blocks;
  let out = Array.make (Array.length blocks) { idx = [||]; lower = Matrix.zeros 0 0 } in
  (* each block factors into its own slot: jobs-invariant by construction *)
  Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n:(Array.length blocks)
    (fun bi ->
      let idx, g = blocks.(bi) in
      out.(bi) <- { idx; lower = Cholesky.lower (Cholesky.factorize_regularized g) });
  { n = cols; kind = Blocks { jobs; blocks = out } }

(* Per-block dense triangular kernels over the gathered group entries.
   [L] is the lower Cholesky factor of the block's Gram, C = Lᵀ. *)

(* solve Lᵀ x = u (back substitution) *)
let block_solve l u =
  let s = Array.length u in
  let x = Array.make s 0. in
  for i = s - 1 downto 0 do
    let acc = ref u.(i) in
    for j = i + 1 to s - 1 do
      acc := !acc -. (Matrix.unsafe_get l j i *. x.(j))
    done;
    x.(i) <- !acc /. Matrix.unsafe_get l i i
  done;
  x

(* solve L z = s (forward substitution) *)
let block_solve_t l b =
  let s = Array.length b in
  let z = Array.make s 0. in
  for i = 0 to s - 1 do
    let acc = ref b.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Matrix.unsafe_get l i j *. z.(j))
    done;
    z.(i) <- !acc /. Matrix.unsafe_get l i i
  done;
  z

let on_blocks ~jobs ~blocks kernel v =
  (* uncovered columns pass through; each block overwrites only its own
     indices, so the result is identical for every [jobs] value *)
  let out = Array.copy v in
  Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n:(Array.length blocks)
    (fun bi ->
      let { idx; lower } = blocks.(bi) in
      let g = Array.map (fun j -> v.(j)) idx in
      let r = kernel lower g in
      Array.iteri (fun t j -> out.(j) <- r.(t)) idx);
  out

let check p v name =
  if Array.length v <> p.n then invalid_arg ("Precond." ^ name ^ ": dimension mismatch")

let solve p v =
  check p v "solve";
  match p.kind with
  | Identity -> v
  | Diag w -> Vector.hadamard w v
  | Blocks { jobs; blocks } -> on_blocks ~jobs ~blocks block_solve v

let solve_t p v =
  check p v "solve_t";
  match p.kind with
  | Identity -> v
  | Diag w -> Vector.hadamard w v
  | Blocks { jobs; blocks } -> on_blocks ~jobs ~blocks block_solve_t v
