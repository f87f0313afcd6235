module Matrix = Linalg.Matrix
module Multicast = Netsim.Multicast

let subtree_paths (tree : Multicast.tree) =
  let nc = Array.length tree.Multicast.parent in
  let lists = Array.make nc [] in
  Array.iteri
    (fun p leaf -> lists.(leaf) <- p :: lists.(leaf))
    tree.Multicast.leaf_of_path;
  (* bottom-up: children before parents in reverse topological order *)
  let order = tree.Multicast.order in
  for k = Array.length order - 1 downto 0 do
    let v = order.(k) in
    Array.iter
      (fun c -> lists.(v) <- List.rev_append lists.(c) lists.(v))
      tree.Multicast.children.(v)
  done;
  Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) lists

(* population variance over the usable entries; nan with < 2 of them *)
let var_usable xs =
  let n = ref 0 and sum = ref 0. in
  Array.iter
    (fun x ->
      if Quarantine.cell_valid x then begin
        incr n;
        sum := !sum +. x
      end)
    xs;
  if !n < 2 then Float.nan
  else begin
    let mean = !sum /. float_of_int !n in
    let acc = ref 0. in
    Array.iter
      (fun x ->
        if Quarantine.cell_valid x then begin
          let d = x -. mean in
          acc := !acc +. (d *. d)
        end)
      xs;
    !acc /. float_of_int !n
  end

(* The characteristic functions are evaluated at [grid] points t_j, with
   t_j · sd spanning up to [t_scale], sd the pooled sample spread of the
   two representative paths. *)
let t_scale = 1.0

let grid = 4

(* |φ_S(t)|² from the empirical characteristic functions of two paths
   sharing the segment S, over the pairwise-complete snapshots; the
   variance estimate is averaged over the t grid. nan when unusable. *)
let ecf_segment_variance y1 y2 =
  let n = ref 0 in
  let a = ref [] and b = ref [] in
  Array.iteri
    (fun l x ->
      let y = y2.(l) in
      if Quarantine.cell_valid x && Quarantine.cell_valid y then begin
        incr n;
        a := x :: !a;
        b := y :: !b
      end)
    y1;
  let m = !n in
  if m < 2 then Float.nan
  else begin
    let a = Array.of_list !a and b = Array.of_list !b in
    let sd v =
      let s = var_usable v in
      if Float.is_finite s then sqrt s else 0.
    in
    let spread = Float.max 1e-9 (0.5 *. (sd a +. sd b)) in
    let mf = float_of_int m in
    let estimates = ref [] in
    for j = 1 to grid do
      let t = t_scale *. float_of_int j /. float_of_int grid /. spread in
      (* φ₁(t), conj φ₂(t), E e^{it(Y₁-Y₂)} in one pass *)
      let p1 = ref Complex.zero and p2c = ref Complex.zero and psi = ref Complex.zero in
      for l = 0 to m - 1 do
        let ta = t *. a.(l) and tb = t *. b.(l) in
        p1 := Complex.add !p1 { Complex.re = cos ta; im = sin ta };
        p2c := Complex.add !p2c { Complex.re = cos tb; im = -.sin tb };
        let d = ta -. tb in
        psi := Complex.add !psi { Complex.re = cos d; im = sin d }
      done;
      let scale z = { Complex.re = z.Complex.re /. mf; im = z.Complex.im /. mf } in
      let p1 = scale !p1 and p2c = scale !p2c and psi = scale !psi in
      if Complex.norm psi > 1e-9 then begin
        let mod2 = Complex.norm (Complex.div (Complex.mul p1 p2c) psi) in
        if mod2 > 0. && Float.is_finite mod2 then begin
          let est = -.log mod2 /. (t *. t) in
          if Float.is_finite est then estimates := est :: !estimates
        end
      end
    done;
    match !estimates with
    | [] -> Float.nan
    | es ->
        List.fold_left ( +. ) 0. es /. float_of_int (List.length es)
  end

let variances ~tree ~y_learn =
  let nc = Array.length tree.Multicast.parent in
  let m = Matrix.rows y_learn in
  if m < 2 then invalid_arg "Fourier.variances: need at least 2 snapshots";
  let sub = subtree_paths tree in
  let terminating = Array.make nc [] in
  Array.iteri
    (fun p leaf -> terminating.(leaf) <- p :: terminating.(leaf))
    tree.Multicast.leaf_of_path;
  let col p = Array.init m (fun l -> Matrix.get y_learn l p) in
  (* segment variance of root→v, top-down so a fallback can inherit the
     parent's (already resolved) value *)
  let segvar = Array.make nc Float.nan in
  let unresolved = ref 0 in
  Array.iter
    (fun v ->
      let raw =
        match List.sort compare terminating.(v) with
        | p :: _ ->
            (* a path ends here: root→v is that whole path, measured *)
            var_usable (col p)
        | [] ->
            let children = tree.Multicast.children.(v) in
            if Array.length children >= 2 then
              let p1 = sub.(children.(0)).(0) and p2 = sub.(children.(1)).(0) in
              ecf_segment_variance (col p1) (col p2)
            else
              (* a non-terminating chain node cannot survive routing
                 reduction (its path set equals its child's); treat a
                 malformed tree like a collapsed sample *)
              Float.nan
      in
      if Float.is_finite raw then segvar.(v) <- raw
      else begin
        incr unresolved;
        segvar.(v) <-
          (let p = tree.Multicast.parent.(v) in
           if p < 0 then 0. else segvar.(p))
      end)
    tree.Multicast.order;
  let v =
    Array.init nc (fun k ->
        let above =
          let p = tree.Multicast.parent.(k) in
          if p < 0 then 0. else segvar.(p)
        in
        Float.max 0. (segvar.(k) -. above))
  in
  (v, !unresolved)
