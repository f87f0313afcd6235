module Sparse = Linalg.Sparse

let row_count ~np = np * (np + 1) / 2

let row_index ~np ~i ~j =
  if i < 0 || j < i || j >= np then invalid_arg "Augmented.row_index: bad pair";
  (* rows for pairs with i = 0 first: i full blocks of decreasing size *)
  (i * np) - (i * (i - 1) / 2) + (j - i)

(* --- the non-empty pairs ------------------------------------------------ *)

(* First position of [x] or above in the increasing array [c]. *)
let first_at_least c x =
  let lo = ref 0 and hi = ref (Array.length c) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if c.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo

let pairs ?jobs r =
  let np = Sparse.rows r in
  let cols = Sparse.cols_index r in
  (* [iter_links i f] calls [f j e] for every link [e] of path [i], in
     increasing order, and every path [j >= i] that crosses it *)
  let iter_links i f =
    Array.iter
      (fun e ->
        let c = cols.(e) in
        for t = first_at_least c i to Array.length c - 1 do
          f c.(t) e
        done)
      (Sparse.row r i)
  in
  (* Per-domain scratch, all zero between paths: [hits.(j)] counts the
     links path j shares with the current path, and [seen] lists those
     partners in first-hit order. *)
  let scratch =
    Parallel.Pool.Buffers.create (fun () -> (Array.make np 0, Array.make np 0))
  in
  let blocks = Parallel.Chunk.block_count ~min_block:64 np in
  let for_paths f =
    Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
        let lo, hi = Parallel.Chunk.range ~blocks ~n:np bk in
        let sc = Parallel.Pool.Buffers.borrow scratch in
        for i = lo to hi - 1 do
          f sc i
        done;
        Parallel.Pool.Buffers.return scratch sc)
  in
  let partners (hits, seen) i =
    let n = ref 0 in
    iter_links i (fun j _ ->
        if hits.(j) = 0 then begin
          seen.(!n) <- j;
          incr n
        end;
        hits.(j) <- hits.(j) + 1);
    Array.sub seen 0 !n
  in
  (* Count, then fill exactly sized arrays. Every path writes only its own
     slots, so the result is the same for every [jobs]. *)
  let count = Array.make np 0 in
  for_paths (fun ((hits, _) as sc) i ->
      let p = partners sc i in
      Array.iter (fun j -> hits.(j) <- 0) p;
      count.(i) <- Array.length p);
  let offset = Array.make (np + 1) 0 in
  for i = 0 to np - 1 do
    offset.(i + 1) <- offset.(i) + count.(i)
  done;
  let total = offset.(np) in
  let is = Array.make total 0 and js = Array.make total 0 in
  let supports = Array.make total [||] in
  for_paths (fun ((hits, seen) as sc) i ->
      let p = partners sc i in
      Array.sort Int.compare p;
      (* from here [seen.(j)] is partner j's slot and [hits.(j)] the fill
         position of its support, which grows in increasing link order *)
      Array.iteri
        (fun t j ->
          let slot = offset.(i) + t in
          is.(slot) <- i;
          js.(slot) <- j;
          supports.(slot) <- Array.make hits.(j) 0;
          seen.(j) <- slot;
          hits.(j) <- 0)
        p;
      iter_links i (fun j e ->
          supports.(seen.(j)).(hits.(j)) <- e;
          hits.(j) <- hits.(j) + 1);
      Array.iter (fun j -> hits.(j) <- 0) p);
  (is, js, Sparse.create ~cols:(Sparse.cols r) supports)

let sample_mask ~np ~fraction ~seed =
  if not (fraction >= 0. && fraction <= 1.) then
    invalid_arg "Augmented.sample_mask: fraction outside [0, 1]";
  let n = row_count ~np in
  let b = Bytes.make n '\000' in
  (* SplitMix64 of (seed, k): platform-independent, so the same sketch is
     drawn everywhere and resampling a row never depends on jobs *)
  let golden = 0x9e3779b97f4a7c15L in
  let base = Int64.mul (Int64.of_int seed) 0xbf58476d1ce4e5b9L in
  let scale = Int64.to_float (Int64.shift_left 1L 53) in
  for k = 0 to n - 1 do
    let z = Int64.add base (Int64.mul (Int64.of_int (k + 1)) golden) in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
        0xbf58476d1ce4e5b9L
    in
    let z =
      Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
        0x94d049bb133111ebL
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let u =
      Int64.to_float (Int64.shift_right_logical z 11) /. scale
    in
    if u < fraction then Bytes.unsafe_set b k '\001'
  done;
  b
