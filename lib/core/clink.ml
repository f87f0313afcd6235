module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

type model = { congestion_prob : float array }

let clamp lo hi x = Float.max lo (Float.min hi x)

let learn ~r ~good_fraction =
  let np = Sparse.rows r and nc = Sparse.cols r in
  if Array.length good_fraction <> np then
    invalid_arg "Clink.learn: good fraction length mismatch";
  (* R q = -log g, q_k = -log(1 - p_k) >= 0 *)
  let rhs =
    Array.map (fun g -> -.log (clamp 1e-6 (1. -. 1e-6) g)) good_fraction
  in
  let q = Sparse.least_squares r rhs in
  let p =
    Array.init nc (fun k ->
        let qk = Float.max 0. q.(k) in
        clamp 1e-6 (1. -. 1e-6) (1. -. exp (-.qk)))
  in
  { congestion_prob = p }

let good_fractions y ~r ~threshold =
  let m = Matrix.rows y and np = Sparse.rows r in
  if Matrix.cols y <> np then invalid_arg "Clink.good_fractions: width mismatch";
  if m = 0 then invalid_arg "Clink.good_fractions: no snapshots";
  Array.init np (fun i ->
      let len = Array.length (Sparse.row r i) in
      let best_case = float_of_int len *. log (1. -. threshold) in
      let good = ref 0 and usable = ref 0 in
      for l = 0 to m - 1 do
        let v = Matrix.get y l i in
        if Quarantine.cell_valid v then begin
          incr usable;
          if v >= best_case then incr good
        end
      done;
      if !usable = 0 then 1. else float_of_int !good /. float_of_int !usable)

let infer model r ~bad_paths =
  let np = Sparse.rows r and nc = Sparse.cols r in
  if Array.length bad_paths <> np then invalid_arg "Clink.infer: length mismatch";
  if Array.length model.congestion_prob <> nc then
    invalid_arg "Clink.infer: model size mismatch";
  let on_good = Array.make nc false in
  let covered = Array.make nc false in
  for i = 0 to np - 1 do
    Array.iter
      (fun j ->
        covered.(j) <- true;
        if not bad_paths.(i) then on_good.(j) <- true)
      (Sparse.row r i)
  done;
  let candidate = Array.init nc (fun j -> covered.(j) && not on_good.(j)) in
  let weight j = -.log model.congestion_prob.(j) in
  let explains = Array.make nc [] in
  let still = Hashtbl.create 64 in
  for i = 0 to np - 1 do
    if bad_paths.(i) then begin
      Hashtbl.replace still i ();
      Array.iter
        (fun j -> if candidate.(j) then explains.(j) <- i :: explains.(j))
        (Sparse.row r i)
    end
  done;
  let chosen = Array.make nc false in
  let remaining = ref (Hashtbl.length still) in
  while !remaining > 0 do
    (* greedy weighted cover: maximize explained-per-weight *)
    let best = ref (-1) and best_score = ref 0. in
    for j = 0 to nc - 1 do
      if candidate.(j) && not chosen.(j) then begin
        let gain = List.length (List.filter (Hashtbl.mem still) explains.(j)) in
        if gain > 0 then begin
          let score = float_of_int gain /. Float.max 1e-9 (weight j) in
          if score > !best_score then begin
            best := j;
            best_score := score
          end
        end
      end
    done;
    if !best < 0 then remaining := 0
    else begin
      chosen.(!best) <- true;
      List.iter
        (fun i ->
          if Hashtbl.mem still i then begin
            Hashtbl.remove still i;
            decr remaining
          end)
        explains.(!best)
    end
  done;
  chosen
