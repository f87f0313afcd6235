type row = int array

type t = { nrows : int; ncols : int; data : row array }

let validate_row ncols r =
  let ok = ref true in
  for k = 0 to Array.length r - 1 do
    let j = r.(k) in
    if j < 0 || j >= ncols || (k > 0 && r.(k - 1) >= j) then ok := false
  done;
  !ok

let create ~cols data =
  if cols < 0 then invalid_arg "Sparse.create: negative column count";
  Array.iter
    (fun r ->
      if not (validate_row cols r) then
        invalid_arg "Sparse.create: row not strictly increasing or out of range")
    data;
  { nrows = Array.length data; ncols = cols; data }

let rows m = m.nrows

let cols m = m.ncols

let row m i =
  if i < 0 || i >= m.nrows then invalid_arg "Sparse.row: index out of bounds";
  m.data.(i)

let nnz m = Array.fold_left (fun acc r -> acc + Array.length r) 0 m.data

let get m i j =
  let r = row m i in
  if j < 0 || j >= m.ncols then invalid_arg "Sparse.get: index out of bounds";
  let rec bsearch lo hi =
    if lo >= hi then false
    else begin
      let mid = (lo + hi) / 2 in
      if r.(mid) = j then true
      else if r.(mid) < j then bsearch (mid + 1) hi
      else bsearch lo mid
    end
  in
  bsearch 0 (Array.length r)

let row_product r1 r2 =
  let n1 = Array.length r1 and n2 = Array.length r2 in
  let out = Array.make (min n1 n2) 0 in
  let k = ref 0 in
  let i = ref 0 and j = ref 0 in
  while !i < n1 && !j < n2 do
    let a = r1.(!i) and b = r2.(!j) in
    if a = b then begin
      out.(!k) <- a;
      incr k;
      incr i;
      incr j
    end
    else if a < b then incr i
    else incr j
  done;
  Array.sub out 0 !k

(* Plain loops, not Array.iter closures: a float accumulator captured by a
   closure is boxed on every update. *)
let mul_vec m x =
  if Array.length x <> m.ncols then invalid_arg "Sparse.mul_vec: dimension mismatch";
  let y = Array.make m.nrows 0. in
  for i = 0 to m.nrows - 1 do
    let r = m.data.(i) in
    let acc = ref 0. in
    for a = 0 to Array.length r - 1 do
      acc := !acc +. x.(r.(a))
    done;
    y.(i) <- !acc
  done;
  y

let tmul_vec m x =
  if Array.length x <> m.nrows then invalid_arg "Sparse.tmul_vec: dimension mismatch";
  let y = Array.make m.ncols 0. in
  for i = 0 to m.nrows - 1 do
    let xi = x.(i) in
    if xi <> 0. then begin
      let r = m.data.(i) in
      for a = 0 to Array.length r - 1 do
        let j = r.(a) in
        y.(j) <- y.(j) +. xi
      done
    end
  done;
  y

let column_counts m =
  let c = Array.make m.ncols 0 in
  Array.iter (fun r -> Array.iter (fun j -> c.(j) <- c.(j) + 1) r) m.data;
  c

let to_dense m =
  let d = Matrix.zeros m.nrows m.ncols in
  Array.iteri (fun i r -> Array.iter (fun j -> Matrix.set d i j 1.) r) m.data;
  d

let dense_cols m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then invalid_arg "Sparse.dense_cols: index out of bounds")
    idx;
  (* map original column -> position in [idx]; -1 when dropped *)
  let pos = Array.make m.ncols (-1) in
  Array.iteri (fun k j -> pos.(j) <- k) idx;
  let d = Matrix.zeros m.nrows (Array.length idx) in
  Array.iteri
    (fun i r ->
      Array.iter (fun j -> if pos.(j) >= 0 then Matrix.set d i pos.(j) 1.) r)
    m.data;
  d

let select_rows m idx =
  let data = Array.map (fun i -> Array.copy (row m i)) idx in
  { nrows = Array.length idx; ncols = m.ncols; data }

let select_cols m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then invalid_arg "Sparse.select_cols: index out of bounds")
    idx;
  let pos = Array.make m.ncols (-1) in
  Array.iteri (fun k j -> pos.(j) <- k) idx;
  let remap r =
    let buf = Array.make (Array.length r) 0 in
    let k = ref 0 in
    Array.iter
      (fun j ->
        if pos.(j) >= 0 then begin
          buf.(!k) <- pos.(j);
          incr k
        end)
      r;
    let a = Array.sub buf 0 !k in
    Array.sort Int.compare a;
    a
  in
  { nrows = m.nrows; ncols = Array.length idx; data = Array.map remap m.data }

let permute_cols m order =
  if Array.length order <> m.ncols then
    invalid_arg "Sparse.permute_cols: order length mismatch";
  let seen = Array.make m.ncols false in
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then
        invalid_arg "Sparse.permute_cols: index out of bounds";
      if seen.(j) then invalid_arg "Sparse.permute_cols: duplicate index";
      seen.(j) <- true)
    order;
  select_cols m order

let gram_block m idx =
  Array.iter
    (fun j ->
      if j < 0 || j >= m.ncols then
        invalid_arg "Sparse.gram_block: index out of bounds")
    idx;
  let s = Array.length idx in
  let pos = Array.make m.ncols (-1) in
  Array.iteri (fun t j -> pos.(j) <- t) idx;
  let g = Matrix.zeros s s in
  (* entries are exact integer counts; a sequential sweep is already
     deterministic and the blocks handed here are small *)
  Array.iter
    (fun r ->
      let local = Array.make (Array.length r) 0 in
      let k = ref 0 in
      Array.iter
        (fun j ->
          if pos.(j) >= 0 then begin
            local.(!k) <- pos.(j);
            incr k
          end)
        r;
      for a = 0 to !k - 1 do
        for b = 0 to !k - 1 do
          let i, j = (local.(a), local.(b)) in
          Matrix.set g i j (Matrix.get g i j +. 1.)
        done
      done)
    m.data;
  g

let cols_index m =
  let counts = column_counts m in
  let out = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make m.ncols 0 in
  Array.iteri
    (fun i r ->
      Array.iter
        (fun j ->
          out.(j).(fill.(j)) <- i;
          fill.(j) <- fill.(j) + 1)
        r)
    m.data;
  (* rows were scanned in increasing i, so each out.(j) is already sorted *)
  out

let transpose m = { nrows = m.ncols; ncols = m.nrows; data = cols_index m }

let gram_lower ?jobs m =
  let nc = m.ncols in
  let index = cols_index m in
  let cols = Array.make nc [||] and vals = Array.make nc [||] in
  (* Row j of the lower triangle: every column c < j of every row that
     holds j, counted once per such row. Each row of the result is
     written by one index, and counts are exact, so the result is the
     same for every [jobs]. *)
  let work =
    Parallel.Pool.Buffers.create (fun () -> (Array.make nc 0, Array.make nc 0))
  in
  let blocks = Parallel.Chunk.block_count ~min_block:64 nc in
  Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
      let lo, hi = Parallel.Chunk.range ~blocks ~n:nc bk in
      let count, touched = Parallel.Pool.Buffers.borrow work in
      for j = lo to hi - 1 do
        let t = ref 0 in
        Array.iter
          (fun i ->
            let r = m.data.(i) in
            let a = ref 0 in
            while r.(!a) < j do
              let c = r.(!a) in
              if count.(c) = 0 then begin
                touched.(!t) <- c;
                incr t
              end;
              count.(c) <- count.(c) + 1;
              incr a
            done)
          index.(j);
        let cj = Array.sub touched 0 !t in
        Array.sort Int.compare cj;
        cols.(j) <- cj;
        vals.(j) <-
          Array.map
            (fun c ->
              let v = float_of_int count.(c) in
              count.(c) <- 0;
              v)
            cj
      done;
      Parallel.Pool.Buffers.return work (count, touched));
  {
    Cholesky.diag = Array.map (fun rows -> float_of_int (Array.length rows)) index;
    cols;
    vals;
  }

let least_squares ?ridge ?jobs m b =
  Cholesky.solve_ordered ?ridge (gram_lower ?jobs m) (tmul_vec m b)

let equal m1 m2 =
  m1.nrows = m2.nrows && m1.ncols = m2.ncols
  && Array.for_all2 (fun r1 r2 -> r1 = r2) m1.data m2.data
