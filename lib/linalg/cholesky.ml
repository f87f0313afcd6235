exception Not_positive_definite

type sym = { diag : float array; cols : int array array; vals : float array array }

(* L by columns: column j holds its diagonal first, then the rows below
   it in increasing order. *)
type t = { n : int; colptr : int array; rowidx : int array; value : float array }

(* The pattern of L, fixed by the pattern of the matrix alone: the
   strictly lower entries of every row of L, increasing, and where each
   column starts. *)
type symbolic = { rows : int array array; colptr : int array }

let check_sym name s =
  let fail msg = invalid_arg (Printf.sprintf "Cholesky.%s: %s" name msg) in
  let n = Array.length s.diag in
  if Array.length s.cols <> n || Array.length s.vals <> n then
    fail "row count mismatch";
  for i = 0 to n - 1 do
    let c = s.cols.(i) in
    if Array.length s.vals.(i) <> Array.length c then fail "row length mismatch";
    for k = 0 to Array.length c - 1 do
      if c.(k) < 0 || c.(k) >= i || (k > 0 && c.(k - 1) >= c.(k)) then
        fail "row pattern not strictly increasing below the diagonal"
    done
  done

let of_matrix m =
  let n = Matrix.rows m in
  if n <> Matrix.cols m then invalid_arg "Cholesky.of_matrix: not square";
  let cols =
    Array.init n (fun i ->
        Array.of_list
          (List.filter (fun j -> Matrix.get m i j <> 0.) (List.init i Fun.id)))
  in
  {
    diag = Array.init n (fun i -> Matrix.get m i i);
    cols;
    vals = Array.mapi (fun i c -> Array.map (fun j -> Matrix.get m i j) c) cols;
  }

(* Elimination tree and row patterns in one pass. Row k's entries first
   link their subtrees under k (with path compression through
   [ancestor]); the pattern of row k of L is then the set of nodes met
   walking up the tree from each entry until k, which every such walk
   reaches. *)
let analyze s =
  let n = Array.length s.diag in
  let parent = Array.make n (-1) and ancestor = Array.make n (-1) in
  let flag = Array.make n (-1) and stack = Array.make n 0 in
  let count = Array.make n 1 in
  let rows =
    Array.init n (fun k ->
        let c = s.cols.(k) in
        for t = 0 to Array.length c - 1 do
          let i = ref c.(t) in
          while !i <> -1 && !i < k do
            let next = ancestor.(!i) in
            ancestor.(!i) <- k;
            if next = -1 then parent.(!i) <- k;
            i := next
          done
        done;
        flag.(k) <- k;
        let top = ref 0 in
        for t = 0 to Array.length c - 1 do
          let i = ref c.(t) in
          while flag.(!i) <> k do
            flag.(!i) <- k;
            stack.(!top) <- !i;
            incr top;
            i := parent.(!i)
          done
        done;
        let r = Array.sub stack 0 !top in
        Array.sort Int.compare r;
        Array.iter (fun j -> count.(j) <- count.(j) + 1) r;
        r)
  in
  let colptr = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    colptr.(j + 1) <- colptr.(j) + count.(j)
  done;
  { rows; colptr }

(* Up-looking factorization: row k of L at step k, its entries in
   increasing column order. Entry L(k,i) accumulates, in [x.(i)],
   A(k,i) minus L(k,j)·L(i,j) for every j of row k's pattern with
   L(i,j) nonzero, in increasing j; L(k,k) accumulates A(k,k) minus the
   squares the same way. These are the operations of the dense
   left-looking algorithm in the same order, less its products with a
   structural zero: those subtract ±0 from an accumulator that starts at
   an entry other than −0 and so is never −0, which leaves it unchanged. *)
let numeric s sym diag =
  let n = Array.length diag in
  let colptr = sym.colptr in
  let rowidx = Array.make colptr.(n) 0 and value = Array.make colptr.(n) 0. in
  let next = Array.copy colptr and x = Array.make n 0. in
  for k = 0 to n - 1 do
    let c = s.cols.(k) and v = s.vals.(k) in
    for t = 0 to Array.length c - 1 do
      x.(c.(t)) <- v.(t)
    done;
    let d = ref diag.(k) in
    let r = sym.rows.(k) in
    for t = 0 to Array.length r - 1 do
      let j = r.(t) in
      let p0 = colptr.(j) in
      let lkj = x.(j) /. value.(p0) in
      x.(j) <- 0.;
      for p = p0 + 1 to next.(j) - 1 do
        let i = rowidx.(p) in
        x.(i) <- x.(i) -. (value.(p) *. lkj)
      done;
      d := !d -. (lkj *. lkj);
      let p = next.(j) in
      rowidx.(p) <- k;
      value.(p) <- lkj;
      next.(j) <- p + 1
    done;
    if !d <= 0. || Float.is_nan !d then raise Not_positive_definite;
    let p = next.(k) in
    rowidx.(p) <- k;
    value.(p) <- sqrt !d;
    next.(k) <- p + 1
  done;
  { n; colptr; rowidx; value }

let factorize s =
  check_sym "factorize" s;
  numeric s (analyze s) s.diag

let factorize_regularized ?(ridge = 1e-10) s =
  check_sym "factorize_regularized" s;
  let n = Array.length s.diag in
  let mean_diag =
    if n = 0 then 0.
    else begin
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. Float.abs s.diag.(i)
      done;
      !acc /. float_of_int n
    end
  in
  let base = if mean_diag > 0. then mean_diag else 1. in
  let sym = analyze s in
  let rec attempt r =
    let diag =
      if r = 0. then s.diag else Array.map (fun d -> d +. (r *. base)) s.diag
    in
    match numeric s sym diag with
    | f -> f
    | exception Not_positive_definite ->
        if r = 0. then attempt ridge
        else if r > 1e-2 then raise Not_positive_definite
        else attempt (r *. 10.)
  in
  attempt 0.

let lower f =
  let l = Matrix.zeros f.n f.n in
  for j = 0 to f.n - 1 do
    for p = f.colptr.(j) to f.colptr.(j + 1) - 1 do
      Matrix.set l f.rowidx.(p) j f.value.(p)
    done
  done;
  l

(* Both sweeps run column by column over L, so every entry of y and x
   takes its subtractions in increasing index order, as in the dense
   row-by-row substitutions. *)
let solve_vec f b =
  if Array.length b <> f.n then invalid_arg "Cholesky.solve_vec: dimension mismatch";
  let { colptr; rowidx; value; _ } = f in
  let y = Array.copy b in
  for j = 0 to f.n - 1 do
    let yj = y.(j) /. value.(colptr.(j)) in
    y.(j) <- yj;
    for p = colptr.(j) + 1 to colptr.(j + 1) - 1 do
      let i = rowidx.(p) in
      y.(i) <- y.(i) -. (value.(p) *. yj)
    done
  done;
  for j = f.n - 1 downto 0 do
    let acc = ref y.(j) in
    for p = colptr.(j) + 1 to colptr.(j + 1) - 1 do
      acc := !acc -. (value.(p) *. y.(rowidx.(p)))
    done;
    y.(j) <- !acc /. value.(colptr.(j))
  done;
  y

let solve m b = solve_vec (factorize (of_matrix m)) b

type ordered = { perm : int array; factor : t }

(* Ascending degree, ties by the lower index (a stable sort of 0..n-1):
   a column with few neighbours is eliminated before the hubs it touches,
   so little fill lands in their rows. Entry (i, j) of the lower triangle
   moves to row max (inv i, inv j), column min (inv i, inv j); bucketing
   the entries by that column (a counting sort) and then dealing them
   out column by column fills every row in increasing column order. *)
let factorize_ordered factor s =
  check_sym "factorize_ordered" s;
  let n = Array.length s.diag in
  let deg = Array.map Array.length s.cols in
  Array.iter (Array.iter (fun j -> deg.(j) <- deg.(j) + 1)) s.cols;
  let perm = Array.init n Fun.id in
  Array.stable_sort (fun i j -> Int.compare deg.(i) deg.(j)) perm;
  let inv = Array.make n 0 in
  Array.iteri (fun a i -> inv.(i) <- a) perm;
  (* [f hi lo i t] for entry [t] of row [i], at its permuted place *)
  let entries f =
    Array.iteri
      (fun i c ->
        Array.iteri
          (fun t j -> f (Int.max inv.(i) inv.(j)) (Int.min inv.(i) inv.(j)) i t)
          c)
      s.cols
  in
  let len = Array.make n 0 and start = Array.make (n + 1) 0 in
  entries (fun hi lo _ _ ->
      len.(hi) <- len.(hi) + 1;
      start.(lo + 1) <- start.(lo + 1) + 1);
  for c = 0 to n - 1 do
    start.(c + 1) <- start.(c + 1) + start.(c)
  done;
  let row = Array.make start.(n) 0 and value = Array.make start.(n) 0. in
  let next = Array.sub start 0 n in
  entries (fun hi lo i t ->
      row.(next.(lo)) <- hi;
      value.(next.(lo)) <- s.vals.(i).(t);
      next.(lo) <- next.(lo) + 1);
  let cols = Array.map (fun l -> Array.make l 0) len in
  let vals = Array.map (fun l -> Array.make l 0.) len in
  Array.fill len 0 n 0;
  for c = 0 to n - 1 do
    for p = start.(c) to start.(c + 1) - 1 do
      let r = row.(p) in
      cols.(r).(len.(r)) <- c;
      vals.(r).(len.(r)) <- value.(p);
      len.(r) <- len.(r) + 1
    done
  done;
  let diag = Array.map (fun i -> s.diag.(i)) perm in
  { perm; factor = factor { diag; cols; vals } }

let solve_ordered_vec { perm; factor } b =
  let n = Array.length perm in
  if Array.length b <> n then
    invalid_arg "Cholesky.solve_ordered_vec: dimension mismatch";
  let x = solve_vec factor (Array.map (fun i -> b.(i)) perm) in
  let out = Array.make n 0. in
  Array.iteri (fun a i -> out.(i) <- x.(a)) perm;
  out

let solve_ordered ?ridge s b =
  if Array.length b <> Array.length s.diag then
    invalid_arg "Cholesky.solve_ordered: dimension mismatch";
  solve_ordered_vec (factorize_ordered (factorize_regularized ?ridge) s) b

let log_det f =
  let acc = ref 0. in
  for i = 0 to f.n - 1 do
    acc := !acc +. log f.value.(f.colptr.(i))
  done;
  2. *. !acc
