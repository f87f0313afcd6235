(* The materialized-A Phase-1 solve, kept as the test oracle for the
   library's estimators, which never form A: the least-squares solution
   of Σ̂* = A v (eq. 8) over an explicit augmented matrix (Definition 1,
   Augmented.build) and an explicit Σ̂* (eq. 7, Covariance.sigma_star),
   through the sparse normal equations or, as in the paper, a dense
   Householder QR.

   The default stays the regularized normal equations: the drop-negative
   rule can cost A column rank (on test_estimators' 80-node tree, seed
   11, 25 snapshots, it leaves rank 78 of 79), and Qr.solve raises on
   such a system. *)

module Sparse = Linalg.Sparse
module Qr = Linalg.Qr

type method_ = Normal_equations | Dense_qr

type options = { method_ : method_; drop_negative : bool; clamp : bool }

let default_options =
  { method_ = Normal_equations; drop_negative = true; clamp = true }

let solve ?(options = default_options) ?jobs ~a ~sigma_star () =
  if Array.length sigma_star <> Sparse.rows a then
    invalid_arg "Variance_estimator.solve: rhs length mismatch";
  let a, rhs =
    if options.drop_negative then begin
      let keep = ref [] in
      Array.iteri (fun k s -> if s >= 0. then keep := k :: !keep) sigma_star;
      let idx = Array.of_list (List.rev !keep) in
      (Sparse.select_rows a idx, Array.map (fun k -> sigma_star.(k)) idx)
    end
    else (a, sigma_star)
  in
  let v =
    match options.method_ with
    | Normal_equations -> Sparse.least_squares ?jobs a rhs
    | Dense_qr -> Qr.solve (Sparse.to_dense a) rhs
  in
  if options.clamp then Array.map (fun x -> Float.max 0. x) v else v

(* [solve] over the A and Σ̂* built from a routing matrix and a snapshot
   matrix *)
let estimate ?options ~r ~y () =
  solve ?options ~a:(Core.Augmented.build r)
    ~sigma_star:(Core.Covariance.sigma_star y) ()

(* The dense left-looking Cholesky factorization, kept as the oracle of
   the library's sparse kernel: on inputs without -0.0 the sparse kernel
   must reproduce its factor, its solutions and its Not_positive_definite
   outcome bit for bit, and its ordered solve must reproduce
   [solve_ordered]. *)
module Cholesky = struct
  module Matrix = Linalg.Matrix

  exception Not_positive_definite = Linalg.Cholesky.Not_positive_definite

  type t = { n : int; l : Matrix.t }

  (* The factorization works on plain rows: going through Matrix.get in the
     O(n^3) inner loop costs an order of magnitude on the ~1000-link systems
     the tomography solver produces. *)
  let factorize m =
    let n = Matrix.rows m in
    if n <> Matrix.cols m then invalid_arg "Cholesky.factorize: not square";
    let l = Array.init n (fun i -> Array.init n (fun j -> Matrix.get m i j)) in
    for j = 0 to n - 1 do
      let lj = l.(j) in
      let s = ref lj.(j) in
      for k = 0 to j - 1 do
        let ljk = lj.(k) in
        s := !s -. (ljk *. ljk)
      done;
      if !s <= 0. || Float.is_nan !s then raise Not_positive_definite;
      let d = sqrt !s in
      lj.(j) <- d;
      for i = j + 1 to n - 1 do
        let li = l.(i) in
        let s = ref li.(j) in
        for k = 0 to j - 1 do
          s := !s -. (li.(k) *. lj.(k))
        done;
        li.(j) <- !s /. d
      done
    done;
    let lower = Matrix.init n n (fun i j -> if j <= i then l.(i).(j) else 0.) in
    { n; l = lower }

  let factorize_regularized ?(ridge = 1e-10) m =
    let n = Matrix.rows m in
    let mean_diag =
      if n = 0 then 0.
      else begin
        let s = ref 0. in
        for i = 0 to n - 1 do
          s := !s +. Float.abs (Matrix.get m i i)
        done;
        !s /. float_of_int n
      end
    in
    let base = if mean_diag > 0. then mean_diag else 1. in
    let rec attempt r =
      let shifted =
        if r = 0. then m
        else Matrix.init n n (fun i j ->
                 if i = j then Matrix.get m i j +. (r *. base) else Matrix.get m i j)
      in
      match factorize shifted with
      | f -> f
      | exception Not_positive_definite ->
          if r = 0. then attempt ridge
          else if r > 1e-2 then raise Not_positive_definite
          else attempt (r *. 10.)
    in
    attempt 0.

  let lower f = Matrix.copy f.l

  let solve_vec f b =
    if Array.length b <> f.n then invalid_arg "Cholesky.solve_vec: dimension mismatch";
    let y = Array.make f.n 0. in
    for i = 0 to f.n - 1 do
      let s = ref (Array.unsafe_get b i) in
      for k = 0 to i - 1 do
        s := !s -. (Matrix.get f.l i k *. Array.unsafe_get y k)
      done;
      Array.unsafe_set y i (!s /. Matrix.get f.l i i)
    done;
    let x = Array.make f.n 0. in
    for i = f.n - 1 downto 0 do
      let s = ref (Array.unsafe_get y i) in
      for k = i + 1 to f.n - 1 do
        s := !s -. (Matrix.get f.l k i *. Array.unsafe_get x k)
      done;
      Array.unsafe_set x i (!s /. Matrix.get f.l i i)
    done;
    x

  (* The regularized solve of P m Pᵀ for P b, scattered back through P,
     where P sorts the rows by their off-diagonal nonzeros, ascending,
     ties by the lower index. The order is read off the dense matrix,
     independently of the library's sparse one. *)
  let solve_ordered m b =
    let n = Matrix.rows m in
    let degree =
      Array.init n (fun i ->
          List.length
            (List.filter
               (fun j -> j <> i && Matrix.get m i j <> 0.)
               (List.init n Fun.id)))
    in
    let perm =
      Array.of_list
        (List.stable_sort
           (fun i j -> compare degree.(i) degree.(j))
           (List.init n Fun.id))
    in
    let pm = Matrix.init n n (fun a c -> Matrix.get m perm.(a) perm.(c)) in
    let x =
      solve_vec (factorize_regularized pm) (Array.map (fun i -> b.(i)) perm)
    in
    let out = Array.make n 0. in
    Array.iteri (fun a i -> out.(i) <- x.(a)) perm;
    out
end

(* The all-pairs check of Assumption T.2, kept as the oracle of the
   library's edge-indexed walk ([Topology.Flutter]): every pair [i < j]
   is tested, each through a hash table and two lists, and the greedy
   removal lets only a kept path drop later ones. The walk must give
   exactly its answers, also on routes that repeat an edge. *)
module Flutter = struct
  module Path = Topology.Path

  let shared_subsequence p q =
    let in_q = Hashtbl.create 16 in
    Array.iter (fun e -> Hashtbl.replace in_q e ()) q.Path.edges;
    let hits = ref [] in
    Array.iteri
      (fun i e -> if Hashtbl.mem in_q e then hits := (i, e) :: !hits)
      p.Path.edges;
    List.rev !hits

  let contiguous indices =
    let rec check = function
      | a :: (b :: _ as rest) -> b = a + 1 && check rest
      | [ _ ] | [] -> true
    in
    check indices

  let pair_flutters p q =
    let sp = shared_subsequence p q in
    if List.length sp <= 1 then false
    else begin
      let sq = shared_subsequence q p in
      let idx_p = List.map fst sp and idx_q = List.map fst sq in
      let seq_p = List.map snd sp and seq_q = List.map snd sq in
      not (contiguous idx_p && contiguous idx_q && seq_p = seq_q)
    end

  let check paths =
    let n = Array.length paths in
    let offending = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if pair_flutters paths.(i) paths.(j) then offending := (i, j) :: !offending
      done
    done;
    List.rev !offending

  let remove_fluttering paths =
    let n = Array.length paths in
    let dropped = Array.make n false in
    for i = 0 to n - 1 do
      if not dropped.(i) then
        for j = i + 1 to n - 1 do
          if (not dropped.(j)) && pair_flutters paths.(i) paths.(j) then
            dropped.(j) <- true
        done
    done;
    let kept = ref [] and removed = ref [] in
    for i = n - 1 downto 0 do
      if dropped.(i) then removed := paths.(i) :: !removed
      else kept := paths.(i) :: !kept
    done;
    (Array.of_list !kept, Array.of_list !removed)
end
