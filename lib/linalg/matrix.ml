type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Matrix.create: negative dimension";
  { rows; cols; data = Array.make (rows * cols) x }

let zeros rows cols = create rows cols 0.

let init rows cols f =
  let m = zeros rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let of_arrays a =
  let rows = Array.length a in
  let cols = if rows = 0 then 0 else Array.length a.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Matrix.of_arrays: ragged rows")
    a;
  init rows cols (fun i j -> a.(i).(j))

let of_row_major rows cols data =
  if rows < 0 || cols < 0 || Array.length data <> rows * cols then
    invalid_arg "Matrix.of_row_major: dimension mismatch";
  { rows; cols; data }

let rows m = m.rows

let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.get: index out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Matrix.set: index out of bounds";
  m.data.((i * m.cols) + j) <- x

let copy m = { m with data = Array.copy m.data }

let row m i =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.row: index out of bounds";
  Array.sub m.data (i * m.cols) m.cols

let col m j =
  if j < 0 || j >= m.cols then invalid_arg "Matrix.col: index out of bounds";
  Array.init m.rows (fun i -> m.data.((i * m.cols) + j))

let set_row m i v =
  if i < 0 || i >= m.rows then invalid_arg "Matrix.set_row: index out of bounds";
  if Array.length v <> m.cols then invalid_arg "Matrix.set_row: dimension mismatch";
  Array.blit v 0 m.data (i * m.cols) m.cols

let transpose m = init m.cols m.rows (fun i j -> get m j i)

let check_same name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

let add a b =
  check_same "Matrix.add" a b;
  { a with data = Array.mapi (fun k x -> x +. b.data.(k)) a.data }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
  let c = zeros a.rows b.cols in
  (* k-in-the-middle loop order keeps the inner scan over contiguous rows of
     [b] and [c], which matters for the larger tomography systems. *)
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0. then
        for j = 0 to b.cols - 1 do
          c.data.((i * c.cols) + j)
          <- c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

let mul_vec m x =
  if Array.length x <> m.cols then invalid_arg "Matrix.mul_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref 0. in
      for j = 0 to m.cols - 1 do
        acc := !acc +. (m.data.((i * m.cols) + j) *. x.(j))
      done;
      !acc)

let tmul_vec m x =
  if Array.length x <> m.rows then invalid_arg "Matrix.tmul_vec: dimension mismatch";
  let y = Array.make m.cols 0. in
  for i = 0 to m.rows - 1 do
    let xi = x.(i) in
    if xi <> 0. then
      for j = 0 to m.cols - 1 do
        y.(j) <- y.(j) +. (m.data.((i * m.cols) + j) *. xi)
      done
  done;
  y

let gram m =
  let g = zeros m.cols m.cols in
  for i = 0 to m.rows - 1 do
    let base = i * m.cols in
    for j = 0 to m.cols - 1 do
      let mij = m.data.(base + j) in
      if mij <> 0. then
        for k = j to m.cols - 1 do
          g.data.((j * m.cols) + k)
          <- g.data.((j * m.cols) + k) +. (mij *. m.data.(base + k))
        done
    done
  done;
  for j = 0 to m.cols - 1 do
    for k = 0 to j - 1 do
      g.data.((j * m.cols) + k) <- g.data.((k * m.cols) + j)
    done
  done;
  g

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.)

let diagonal m = Array.init (min m.rows m.cols) (fun i -> get m i i)

let select_cols m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.cols then invalid_arg "Matrix.select_cols: index out of bounds")
    idx;
  init m.rows (Array.length idx) (fun i k -> get m i idx.(k))

let drop_cols m to_drop =
  let dropped = Array.make m.cols false in
  List.iter
    (fun j ->
      if j < 0 || j >= m.cols then invalid_arg "Matrix.drop_cols: index out of bounds";
      dropped.(j) <- true)
    to_drop;
  let kept = ref [] in
  for j = m.cols - 1 downto 0 do
    if not dropped.(j) then kept := j :: !kept
  done;
  select_cols m (Array.of_list !kept)

let hstack a b =
  if a.rows <> b.rows then invalid_arg "Matrix.hstack: row mismatch";
  init a.rows (a.cols + b.cols) (fun i j ->
      if j < a.cols then get a i j else get b i (j - a.cols))

let vstack a b =
  if a.cols <> b.cols then invalid_arg "Matrix.vstack: column mismatch";
  init (a.rows + b.rows) a.cols (fun i j ->
      if i < a.rows then get a i j else get b (i - a.rows) j)

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && Vector.approx_equal ~tol a.data b.data

let is_symmetric m =
  let tol = 1e-9 in
  m.rows = m.cols
  && begin
       let ok = ref true in
       for i = 0 to m.rows - 1 do
         for j = i + 1 to m.cols - 1 do
           if Float.abs (get m i j -. get m j i) > tol then ok := false
         done
       done;
       !ok
     end

let pp ppf m =
  Format.fprintf ppf "@[<v>";
  for i = 0 to m.rows - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%8.4g" (get m i j)
    done;
    Format.fprintf ppf "]"
  done;
  Format.fprintf ppf "@]"
