module Sparse = Linalg.Sparse

(* The positions of [p] whose edge [q] also crosses: how many there are,
   the first and the last. Routes are a few hops long, so a scan of [q]
   per position is cheaper than building a set. *)
let shared p q =
  let count = ref 0 and first = ref 0 and last = ref 0 in
  Array.iteri
    (fun k e ->
      if Path.mem_edge q e then begin
        if !count = 0 then first := k;
        last := k;
        incr count
      end)
    p.Path.edges;
  (!count, !first, !last)

let pair_flutters p q =
  let np, fp, lp = shared p q in
  np > 1
  &&
  let nq, fq, lq = shared q p in
  (* T.2 holds when the shared positions are one block along each route
     and both blocks list the same edges in the same order *)
  not
    (lp - fp + 1 = np
    && lq - fq + 1 = nq
    && Array.sub p.Path.edges fp np = Array.sub q.Path.edges fq nq)

(* The T.2 walk. Only paths that share an edge can flutter, so path [i] is
   compared only with the later paths its edges lead to, through an
   edge -> paths index. [live j] says whether path [j] still takes part;
   [offend i j] is called on every live pair [i < j] that flutters, in
   increasing [i] but in no set order of [j]. *)
let walk paths ~live offend =
  let n = Array.length paths in
  let routes =
    Array.map
      (fun p ->
        Array.of_list (List.sort_uniq Int.compare (Array.to_list p.Path.edges)))
      paths
  in
  let cols =
    1 + Array.fold_left (fun m r -> Array.fold_left Int.max m r) (-1) routes
  in
  let index = Sparse.cols_index (Sparse.create ~cols routes) in
  (* All zero between paths: [hits.(j)] counts the positions of path [i]
     whose edge path [j] crosses (once per occurrence, so it is the size of
     the shared subsequence [pair_flutters] gates on), and [seen] lists
     those [j] in first-hit order. *)
  let hits = Array.make n 0 and seen = Array.make n 0 in
  for i = 0 to n - 1 do
    if live i then begin
      let m = ref 0 in
      Array.iter
        (fun e ->
          let c = index.(e) in
          let t = ref (Array.length c - 1) in
          while !t >= 0 && c.(!t) > i do
            let j = c.(!t) in
            if live j then begin
              if hits.(j) = 0 then begin
                seen.(!m) <- j;
                incr m
              end;
              hits.(j) <- hits.(j) + 1
            end;
            decr t
          done)
        paths.(i).Path.edges;
      for k = 0 to !m - 1 do
        let j = seen.(k) in
        if hits.(j) > 1 && pair_flutters paths.(i) paths.(j) then offend i j;
        hits.(j) <- 0
      done
    end
  done

let check paths =
  let offending = ref [] in
  walk paths ~live:(fun _ -> true) (fun i j -> offending := (i, j) :: !offending);
  List.sort compare !offending

let remove_fluttering paths =
  let n = Array.length paths in
  let dropped = Array.make n false in
  walk paths ~live:(fun i -> not dropped.(i)) (fun _ j -> dropped.(j) <- true);
  let kept = ref [] and removed = ref [] in
  for i = n - 1 downto 0 do
    if dropped.(i) then removed := paths.(i) :: !removed
    else kept := paths.(i) :: !kept
  done;
  (Array.of_list !kept, Array.of_list !removed)
