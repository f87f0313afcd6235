module Sparse = Linalg.Sparse
module Vector = Linalg.Vector
module Exact_basis = Linalg.Exact_basis

type result = { kept : int array; removed : int array }

(* Columns in descending order of their grid keys (see the interface).
   Inside a grid cell, higher column ids come first so that the ascending
   removal order of the paper (stable sort, remove from the front) is
   mirrored exactly. *)
let descending_order r v =
  if Array.length v <> Sparse.cols r then
    invalid_arg "Rank_reduction: variance length mismatch";
  let top =
    Array.fold_left
      (fun m x -> if Float.is_finite x then Float.max m (Float.abs x) else m)
      0. v
  in
  let g = 1e-12 *. top in
  let key = if g = 0. then v else Array.map (fun x -> Float.round (x /. g)) v in
  let asc = Vector.sort_indices key in
  let n = Array.length asc in
  Array.init n (fun k -> asc.(n - 1 - k))

let scan ~stop_at_first_dependent r v =
  let order = descending_order r v in
  let index = Sparse.cols_index r in
  let basis = Exact_basis.create ~dim:(Sparse.rows r) in
  let kept = ref [] and removed = ref [] in
  let stopped = ref false in
  Array.iter
    (fun j ->
      if !stopped then removed := j :: !removed
      else if Exact_basis.try_add basis index.(j) then kept := j :: !kept
      else begin
        removed := j :: !removed;
        if stop_at_first_dependent then stopped := true
      end)
    order;
  { kept = Array.of_list (List.rev !kept); removed = Array.of_list (List.rev !removed) }

let eliminate r v = scan ~stop_at_first_dependent:true r v

let eliminate_greedy r v = scan ~stop_at_first_dependent:false r v
