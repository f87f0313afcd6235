module Sparse = Linalg.Sparse
module Exact_basis = Linalg.Exact_basis

type t = { r : Sparse.t; row_space : Exact_basis.t }

let prepare r =
  let row_space = Exact_basis.create ~dim:(Sparse.cols r) in
  for i = 0 to Sparse.rows r - 1 do
    ignore (Exact_basis.try_add row_space (Sparse.row r i))
  done;
  { r; row_space }

(* a segment's links come in traversal order: sort and deduplicate them
   into the support of its indicator *)
let identifiable t cols =
  Exact_basis.in_span t.row_space
    (Array.of_list (List.sort_uniq Int.compare (Array.to_list cols)))

let decompose_path t cols =
  let n = Array.length cols in
  let segments = ref [] in
  let start = ref 0 in
  while !start < n do
    (* shortest identifiable extension of cols.(start ..) *)
    let stop = ref (!start + 1) in
    while
      !stop < n && not (identifiable t (Array.sub cols !start (!stop - !start)))
    do
      incr stop
    done;
    if identifiable t (Array.sub cols !start (!stop - !start)) then begin
      segments := Array.sub cols !start (!stop - !start) :: !segments;
      start := !stop
    end
    else begin
      (* the suffix alone is not identifiable: merge into the previous
         segment (always possible, the full row is identifiable) *)
      let tail = Array.sub cols !start (n - !start) in
      (match !segments with
      | last :: rest -> segments := Array.append last tail :: rest
      | [] -> segments := [ tail ]);
      start := n
    end
  done;
  List.rev !segments

let decompose t =
  Array.init (Sparse.rows t.r) (fun i -> decompose_path t (Sparse.row t.r i))

let segment_loss_rates t ~y_now all_segments =
  if Array.length y_now <> Sparse.rows t.r then
    invalid_arg "Mils.segment_loss_rates: measurement length mismatch";
  (* minimum-norm-ish least squares via regularized normal equations: the
     value of an identifiable functional is solver-independent *)
  let x = Sparse.least_squares ~ridge:1e-9 t.r y_now in
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun segments ->
      List.iter
        (fun seg ->
          let key = Array.to_list seg in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            let log_rate = Array.fold_left (fun acc j -> acc +. x.(j)) 0. seg in
            out := (seg, 1. -. exp log_rate) :: !out
          end)
        segments)
    all_segments;
  List.rev !out

type estimate = {
  loss_rates : float array;
  segments : int array list array;
  mean_segment_length : float;
}

let average_length all_segments =
  let total = ref 0 and count = ref 0 in
  Array.iter
    (fun segments ->
      List.iter
        (fun seg ->
          total := !total + Array.length seg;
          incr count)
        segments)
    all_segments;
  if !count = 0 then 0. else float_of_int !total /. float_of_int !count

let estimate r ~y_now =
  let nc = Sparse.cols r in
  let t = prepare r in
  let segments = decompose t in
  let rates = segment_loss_rates t ~y_now segments in
  (* per-link projection: spread each segment's aggregate evenly in the
     log domain, each link taking the value of its shortest (most
     precise) covering segment; uncovered links read loss-free *)
  let loss_rates = Array.make nc 0. in
  let best_len = Array.make nc max_int in
  List.iter
    (fun (seg, loss) ->
      let k = Array.length seg in
      if k > 0 then begin
        let loss = Float.max 0. (Float.min (1. -. 1e-12) loss) in
        let per = 1. -. ((1. -. loss) ** (1. /. float_of_int k)) in
        Array.iter
          (fun j ->
            if k < best_len.(j) then begin
              best_len.(j) <- k;
              loss_rates.(j) <- per
            end)
          seg
      end)
    rates;
  { loss_rates; segments; mean_segment_length = average_length segments }

