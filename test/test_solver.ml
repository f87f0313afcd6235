(* Property tests for the Phase-1 pair list and the iterative solve path:
   the non-empty pair rows must be exactly those of the materialized
   augmented matrix, the streaming estimator over them must equal the
   all-pairs triangle sweep bit for bit, CGLS must agree with the dense
   oracles to solver tolerance, the end-to-end --solver cgls pipeline must
   track the dense pipeline on clean and faulted input, and everything
   must be bit-for-bit jobs-invariant. The preconditioners' Phase-1
   iteration counts are pinned on one instance. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Qr = Linalg.Qr
module Lsqr = Linalg.Lsqr
module Rng = Nstats.Rng
module Augmented = Core.Augmented
module VE = Core.Variance_estimator

let vec_bits_equal = Generators.vec_bits_equal

let close ?(rtol = 1e-6) ?(atol = 1e-8) a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Float.abs (x -. y)
         <= atol +. (rtol *. Float.max (Float.abs x) (Float.abs y)))
       a b

(* small routing matrix + random dense vectors driven by one seed *)
let routing_of_seed seed =
  let r, _, _ = Generators.random_instance seed in
  r

let random_vec rng n = Array.init n (fun _ -> Rng.uniform rng (-1.) 1.)

(* --- the pair list vs the pair triangle --------------------------------- *)

(* Every pair i <= j whose routing rows intersect, found by intersecting
   each pair of rows of the triangle: (is, js, ks, supports). *)
let brute_force_pairs r =
  let np = Sparse.rows r in
  let found = ref [] in
  for i = np - 1 downto 0 do
    for j = np - 1 downto i do
      let supp =
        if i = j then Sparse.row r i
        else Sparse.row_product (Sparse.row r i) (Sparse.row r j)
      in
      if Array.length supp > 0 then
        found := (i, j, Augmented.row_index ~np ~i ~j, supp) :: !found
    done
  done;
  let found = Array.of_list !found in
  ( Array.map (fun (i, _, _, _) -> i) found,
    Array.map (fun (_, j, _, _) -> j) found,
    Array.map (fun (_, _, k, _) -> k) found,
    Array.map (fun (_, _, _, s) -> s) found )

let pairs_equal (is1, js1, s1) (is2, js2, s2) =
  is1 = is2 && js1 = js2 && Sparse.equal s1 s2

let prop_pairs_match_brute_force =
  QCheck.Test.make ~count:40
    ~name:
      "Augmented.pairs = brute-force triangle scan: pairs, order, k and \
       supports (every generator, empty rows, jobs in {1,2,4})"
    Generators.seed_arb
    (fun seed ->
      List.for_all
        (fun r ->
          let np = Sparse.rows r in
          let bis, bjs, bks, bsupp = brute_force_pairs r in
          let is, js, supports = Augmented.pairs ~jobs:1 r in
          is = bis && js = bjs
          && Array.map2 (fun i j -> Augmented.row_index ~np ~i ~j) is js = bks
          && Sparse.equal supports (Sparse.create ~cols:(Sparse.cols r) bsupp)
          && List.for_all
               (fun jobs ->
                 pairs_equal (is, js, supports) (Augmented.pairs ~jobs r))
               [ 2; 4 ])
        [
          Generators.random_routing seed;
          Generators.with_empty_rows seed (Generators.random_routing seed);
          routing_of_seed seed;
        ])

(* The estimator's live-row operator: the non-empty pair rows of [r] that
   a seeded ~70% draw keeps (standing in for the min-overlap,
   drop-negative and sketch rules), in flat row order, with their flat
   row indices. *)
let live_rows ?jobs seed r =
  let np = Sparse.rows r in
  let is, js, supports = Augmented.pairs ?jobs r in
  let rng = Rng.create (seed + 43) in
  let live =
    List.init (Array.length is) Fun.id
    |> List.filter (fun _ -> Rng.bool rng 0.7)
    |> Array.of_list
  in
  ( Sparse.select_rows supports live,
    Array.map (fun p -> Augmented.row_index ~np ~i:is.(p) ~j:js.(p)) live )

let prop_live_rows_match_build =
  QCheck.Test.make ~count:25
    ~name:
      "live-row operator: products match the Augmented.build rows at the \
       live k (1e-12)"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let a_live, ks = live_rows seed r in
      let explicit = Lsqr.of_sparse (Sparse.select_rows (Augmented.build r) ks) in
      let implicit = Lsqr.of_sparse a_live in
      let rng = Rng.create (seed + 17) in
      implicit.Lsqr.rows = explicit.Lsqr.rows
      && implicit.Lsqr.cols = explicit.Lsqr.cols
      && begin
           let v = random_vec rng implicit.Lsqr.cols in
           let w = random_vec rng implicit.Lsqr.rows in
           close ~rtol:1e-12 ~atol:1e-12
             (explicit.Lsqr.apply v) (implicit.Lsqr.apply v)
           && close ~rtol:1e-12 ~atol:1e-12
                (explicit.Lsqr.apply_t w) (implicit.Lsqr.apply_t w)
         end)

let prop_live_rows_jobs_invariant =
  QCheck.Test.make ~count:15
    ~name:"live-row operator: bit-for-bit identical for jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let a1, ks1 = live_rows ~jobs:1 seed r in
      let op1 = Lsqr.of_sparse a1 in
      let rng = Rng.create (seed + 31) in
      let v = random_vec rng op1.Lsqr.cols in
      let w = random_vec rng op1.Lsqr.rows in
      let y1 = op1.Lsqr.apply v and x1 = op1.Lsqr.apply_t w in
      List.for_all
        (fun jobs ->
          let a, ks = live_rows ~jobs seed r in
          let op = Lsqr.of_sparse a in
          ks = ks1
          && vec_bits_equal y1 (op.Lsqr.apply v)
          && vec_bits_equal x1 (op.Lsqr.apply_t w))
        [ 2; 4 ])

let prop_column_counts_exact =
  QCheck.Test.make ~count:15
    ~name:
      "live-row column counts: exact diag(AtA) of the live Augmented.build \
       rows"
    Generators.seed_arb
    (fun seed ->
      let r = routing_of_seed seed in
      let a_live, ks = live_rows seed r in
      let a = Augmented.build r in
      let expected = Array.make (Sparse.cols a) 0. in
      Array.iter
        (fun k ->
          Array.iter
            (fun j -> expected.(j) <- expected.(j) +. 1.)
            (Sparse.row a k))
        ks;
      vec_bits_equal expected
        (Array.map float_of_int (Sparse.column_counts a_live)))

(* --- the streaming estimator vs the all-pairs sweep --------------------- *)

(* Oracle: the streaming estimator as a walk over all n_p(n_p+1)/2 pairs
   of the triangle in blocks of the flat row range, intersecting routing
   rows as it goes. Sequential, but with per-block partial sums of b
   merged in block order, since those fix the floating-point summation
   order. It accumulates the dense Gram matrix G and b and hands them to
   [solve]: the library's ordered sparse kernel is checked against the
   dense Cholesky of [Oracle.Cholesky] on P G Pᵀ
   ([Oracle.Cholesky.solve_ordered]), an independent factorization. *)
let all_pairs_streaming ~solve ~drop_negative ~clamp ~min_pair_samples ~r ~y =
  let np = Sparse.rows r and nc = Sparse.cols r in
  let m = Matrix.rows y in
  let columns = Array.init np (fun i -> Array.init m (fun l -> Matrix.get y l i)) in
  let has_missing = Array.map (Array.exists Float.is_nan) columns in
  let centered =
    Array.mapi
      (fun i col ->
        let mu =
          if not has_missing.(i) then
            Array.fold_left ( +. ) 0. col /. float_of_int m
          else begin
            let sum = ref 0. and n = ref 0 in
            Array.iter
              (fun x ->
                if not (Float.is_nan x) then begin
                  sum := !sum +. x;
                  incr n
                end)
              col;
            if !n = 0 then Float.nan else !sum /. float_of_int !n
          end
        in
        Array.map (fun x -> x -. mu) col)
      columns
  in
  let pair_cov i j =
    let ci = centered.(i) and cj = centered.(j) in
    if not (has_missing.(i) || has_missing.(j)) then begin
      let acc = ref 0. in
      for l = 0 to m - 1 do
        acc := !acc +. (ci.(l) *. cj.(l))
      done;
      (!acc /. float_of_int (m - 1), m)
    end
    else begin
      let acc = ref 0. and n = ref 0 in
      for l = 0 to m - 1 do
        let a = ci.(l) and b = cj.(l) in
        if not (Float.is_nan a || Float.is_nan b) then begin
          acc := !acc +. (a *. b);
          incr n
        end
      done;
      if !n < 2 then (Float.nan, !n) else (!acc /. float_of_int (!n - 1), !n)
    end
  in
  let npairs = np * (np + 1) / 2 in
  let blocks = Parallel.Chunk.block_count npairs in
  let partial_b = Array.init blocks (fun _ -> Array.make nc 0.) in
  let g = Array.make (nc * nc) 0. in
  let nonempty = ref 0 and skipped = ref 0 and min_n = ref max_int in
  for bk = 0 to blocks - 1 do
    let lo, hi = Parallel.Chunk.range ~blocks ~n:npairs bk in
    let b = partial_b.(bk) in
    Parallel.Chunk.iter_pairs ~np ~lo ~hi (fun _ i j ->
        let row =
          if i = j then Sparse.row r i
          else Sparse.row_product (Sparse.row r i) (Sparse.row r j)
        in
        if Array.length row > 0 then begin
          incr nonempty;
          let s, n = pair_cov i j in
          if n < min_pair_samples then incr skipped
          else begin
            if n < !min_n then min_n := n;
            if s >= 0. || not drop_negative then
              Array.iter
                (fun ja ->
                  b.(ja) <- b.(ja) +. s;
                  Array.iter
                    (fun c -> g.((ja * nc) + c) <- g.((ja * nc) + c) +. 1.)
                    row)
                row
          end
        end)
  done;
  let b = Array.make nc 0. in
  Array.iter
    (fun p ->
      for j = 0 to nc - 1 do
        b.(j) <- b.(j) +. p.(j)
      done)
    partial_b;
  let gm = Matrix.init nc nc (fun i j -> g.((i * nc) + j)) in
  let v = solve gm b in
  let v = if clamp then Array.map (fun x -> Float.max 0. x) v else v in
  ( v,
    {
      VE.pairs_total = !nonempty;
      pairs_used = !nonempty - !skipped;
      samples_min = (if !min_n = max_int then 0 else !min_n);
    } )

(* [y] with a seeded share (2-30%) of its cells turned into NaN holes *)
let punch_holes seed y =
  let rng = Rng.create (seed + 71) in
  let share = Rng.uniform rng 0.02 0.3 in
  Matrix.init (Matrix.rows y) (Matrix.cols y) (fun l i ->
      if Rng.bool rng share then Float.nan else Matrix.get y l i)

let prop_streaming_matches_all_pairs =
  QCheck.Test.make ~count:20
    ~name:
      "estimate_streaming_ess: bit-for-bit the all-pairs triangle sweep, \
       variances and ess (clean and NaN-holed inputs, jobs in {1,2,4})"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let rng = Rng.create (seed + 5) in
      let drop_negative = Rng.bool rng 0.7 and clamp = Rng.bool rng 0.7 in
      List.for_all
        (fun (y, min_pair_samples) ->
          let v_ref, ess_ref =
            all_pairs_streaming ~solve:Oracle.Cholesky.solve_ordered
              ~drop_negative ~clamp ~min_pair_samples ~r ~y
          in
          List.for_all
            (fun jobs ->
              let v, ess =
                VE.estimate_streaming_ess ~jobs ~drop_negative ~clamp
                  ~min_pair_samples ~r ~y ()
              in
              vec_bits_equal v_ref v && ess = ess_ref)
            [ 1; 2; 4 ])
        [ (y_learn, 2); (punch_holes seed y_learn, 2 + Rng.int rng 4) ])

(* In the full-rank regime (drop-negative and clamping off) the order of
   the Phase-1 factorization moves only the variances' last bits: Phase 2
   keeps the columns a natural-order Phase 1 of the same G and b keeps,
   so it serves the same loss rates bit for bit. *)
let prop_ordered_phase1_keeps_natural_plan =
  QCheck.Test.make ~count:30
    ~name:
      "estimate (full-rank regime): Plan.kept and loss rates bit for bit \
       those of a natural-order oracle Phase 1"
    Generators.seed_arb
    (fun seed ->
      let r, y, target = Generators.random_tree_trial seed in
      let natural_solve gm b =
        Oracle.Cholesky.solve_vec (Oracle.Cholesky.factorize_regularized gm) b
      in
      let v_natural, _ =
        all_pairs_streaming ~solve:natural_solve ~drop_negative:false ~clamp:false
          ~min_pair_samples:2 ~r ~y
      in
      let serve variances =
        Core.Plan.solve (Core.Plan.make ~r ~variances ()) target.Netsim.Snapshot.y
      in
      let ordered =
        serve (VE.estimate ~drop_negative:false ~clamp:false ~r ~y ())
      and natural = serve v_natural in
      ordered.Core.Plan.kept = natural.Core.Plan.kept
      && vec_bits_equal ordered.Core.Plan.loss_rates natural.Core.Plan.loss_rates)

(* --- Theorem 1 against the materialized A, every topology family ------ *)

(* Theorem 1: the full augmented matrix has full column rank on every
   generator, so with drop-negative and clamping off the streaming
   normal equations must land on the unique minimizer that the dense QR
   of the materialized A (the oracle) finds. *)
let prop_theorem1_every_family =
  QCheck.Test.make ~count:4
    ~name:
      "Theorem 1 on every topology family: A has full column rank and \
       estimate = dense QR of the materialized A (1e-9 of max|v|)"
    Generators.seed_arb
    (fun seed ->
      (* random_routing picks the family by seed mod 8: run all eight *)
      List.for_all
        (fun family ->
          let seed = seed - (seed mod 8) + family in
          let r = Generators.random_routing seed in
          let rng = Rng.create (seed + 13) in
          let config =
            Netsim.Snapshot.default_config
              Lossmodel.Loss_model.llrd1_calibrated
          in
          let y =
            (Netsim.Simulator.run rng config r ~count:12).Netsim.Simulator.y
          in
          let v = VE.estimate ~drop_negative:false ~clamp:false ~r ~y () in
          let v_qr =
            Oracle.estimate
              ~options:
                {
                  Oracle.method_ = Oracle.Dense_qr;
                  drop_negative = false;
                  clamp = false;
                }
              ~r ~y ()
          in
          let scale =
            Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. v_qr
          in
          Qr.matrix_rank (Sparse.to_dense (Augmented.build r)) = Sparse.cols r
          && Array.for_all2
               (fun a b -> Float.abs (a -. b) <= 1e-9 *. scale)
               v v_qr)
        [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* --- hierarchical decomposition: AS partition + block preconditioner ---- *)

(* a transit-stub instance carries real AS labels, so the partition has
   several intra-AS groups plus a border group *)
let ts_instance seed =
  let rng = Rng.create seed in
  let hosts = 5 + (seed mod 5) in
  let tb = Topology.Transit_stub.generate rng ~hosts () in
  let red = Topology.Testbed.routing tb in
  (tb, red)

let ts_campaign seed =
  let tb, red = ts_instance seed in
  let r = red.Topology.Routing.matrix in
  let rng = Rng.create (seed + 101) in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:12 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:11 in
  (tb, red, r, y_learn, target)

let as_groups tb red =
  Topology.Partition.group_cols
    (Topology.Partition.by_as tb.Topology.Testbed.graph red)

let prop_permuted_operator_matches =
  QCheck.Test.make ~count:20
    ~name:
      "Sparse.permute_cols: the AS-permuted augmented operator is the \
       original up to the column scatter (1e-12)"
    Generators.seed_arb
    (fun seed ->
      let tb, red = ts_instance seed in
      let r = red.Topology.Routing.matrix in
      let part = Topology.Partition.by_as tb.Topology.Testbed.graph red in
      let order = Topology.Partition.order part in
      let a_live, _ = live_rows seed r in
      let op = Lsqr.of_sparse a_live in
      let opp = Lsqr.of_sparse (Sparse.permute_cols a_live order) in
      let rng = Rng.create (seed + 53) in
      let v = random_vec rng (Sparse.cols r) in
      let w = random_vec rng op.Lsqr.rows in
      (* column k of the permuted operator is column order.(k) of the
         original, so gathering v gives the same row products *)
      let vp = Array.map (fun j -> v.(j)) order in
      let sp = opp.Lsqr.apply_t w in
      let s_scattered = Array.make (Sparse.cols r) 0. in
      Array.iteri (fun k j -> s_scattered.(j) <- sp.(k)) order;
      close ~rtol:1e-12 ~atol:1e-12 (op.Lsqr.apply v) (opp.Lsqr.apply vp)
      && close ~rtol:1e-12 ~atol:1e-12 (op.Lsqr.apply_t w) s_scattered)

(* dense Gram block of a column subset, for driving Precond.block_jacobi
   from a dense test matrix *)
let gram_block_dense m idx =
  let k = Array.length idx in
  Matrix.init k k (fun a b ->
      let s = ref 0. in
      for i = 0 to Matrix.rows m - 1 do
        s := !s +. (Matrix.get m i idx.(a) *. Matrix.get m i idx.(b))
      done;
      !s)

(* split 0..n-1 into contiguous groups with seeded cut points *)
let random_groups rng n =
  let rec cuts acc lo =
    if lo >= n then List.rev acc
    else begin
      let len = 1 + Rng.int rng (max 1 (n / 3)) in
      let hi = min n (lo + len) in
      cuts (Array.init (hi - lo) (fun k -> lo + k) :: acc) hi
    end
  in
  Array.of_list (cuts [] 0)

let prop_precond_cgls_matches_qr =
  QCheck.Test.make ~count:20
    ~name:
      "Lsqr.cgls ?precond: jacobi and block-jacobi leave the minimizer on \
       the dense QR solution"
    Generators.seed_arb
    (fun seed ->
      let m = Generators.random_dense seed in
      let rng = Rng.create (seed + 59) in
      let b = random_vec rng (Matrix.rows m) in
      let exact = Qr.solve m b in
      let op = Lsqr.of_dense m in
      let n = op.Lsqr.cols in
      let counts =
        Array.init n (fun j ->
            let s = ref 0. in
            for i = 0 to Matrix.rows m - 1 do
              s := !s +. (Matrix.get m i j ** 2.)
            done;
            !s)
      in
      let groups = random_groups rng n in
      let blocks = Array.map (fun idx -> (idx, gram_block_dense m idx)) groups in
      List.for_all
        (fun pc ->
          let x, stats = Lsqr.cgls ~tol:1e-13 ~precond:pc op b in
          stats.Linalg.Conjugate_gradient.converged && close ~rtol:1e-6 exact x)
        [
          Linalg.Precond.jacobi counts;
          Linalg.Precond.block_jacobi ~cols:n blocks;
        ])

let prop_block_jacobi_jobs_invariant =
  QCheck.Test.make ~count:8
    ~name:
      "Pc_block_jacobi: estimates bit-identical for jobs in {1,2,4} \
       (transit-stub AS partition)"
    Generators.seed_arb
    (fun seed ->
      let tb, red, r, y_learn, _ = ts_campaign seed in
      let options =
        {
          VE.default_matfree_options with
          VE.mf_precond = VE.Pc_block_jacobi (as_groups tb red);
        }
      in
      let v1, _, _ =
        VE.estimate_matfree_ess ~options ~jobs:1 ~r ~y:y_learn ()
      in
      List.for_all
        (fun jobs ->
          let v, _, _ =
            VE.estimate_matfree_ess ~options ~jobs ~r ~y:y_learn ()
          in
          vec_bits_equal v1 v)
        [ 2; 4 ])

(* --- CGLS vs dense QR ---------------------------------------------------- *)

let prop_cgls_matches_qr =
  QCheck.Test.make ~count:25
    ~name:"Lsqr.cgls: least-squares solution matches dense QR"
    Generators.seed_arb
    (fun seed ->
      let m = Generators.random_dense seed in
      let rng = Rng.create (seed + 7) in
      let b = random_vec rng (Matrix.rows m) in
      let exact = Qr.solve m b in
      let x, stats = Lsqr.cgls ~tol:1e-13 (Lsqr.of_dense m) b in
      stats.Linalg.Conjugate_gradient.converged && close ~rtol:1e-6 exact x)

let prop_scaled_columns_unchanged_minimizer =
  QCheck.Test.make ~count:15
    ~name:"Lsqr.scaled_columns: preconditioning leaves the minimizer alone"
    Generators.seed_arb
    (fun seed ->
      let m = Generators.random_dense seed in
      let rng = Rng.create (seed + 11) in
      let b = random_vec rng (Matrix.rows m) in
      let op = Lsqr.of_dense m in
      let w = Array.init op.Lsqr.cols (fun _ -> Rng.uniform rng 0.3 3.) in
      let plain, _ = Lsqr.cgls ~tol:1e-13 op b in
      let z, _ = Lsqr.cgls ~tol:1e-13 (Lsqr.scaled_columns op w) b in
      close ~rtol:1e-6 plain (Array.mapi (fun i zi -> w.(i) *. zi) z))

(* --- matrix-free estimator vs streaming oracle --------------------------- *)

(* Tight parity needs a unique minimizer: with every pair row kept, the
   full augmented matrix has full column rank (Theorem 1), so streaming
   (normal equations) and CGLS converge to the same point. The
   drop-negative rule can cost column rank, in which case the two solvers
   return different — equally valid — pseudo-solutions; that regime is
   covered by the weaker property below. *)
let prop_matfree_estimator_matches_streaming =
  QCheck.Test.make ~count:15
    ~name:
      "estimate_matfree_ess: variances and ess match the streaming path \
       (full-rank regime)"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let v_ref, ess_ref =
        VE.estimate_streaming_ess ~drop_negative:false ~clamp:false ~r
          ~y:y_learn ()
      in
      let options =
        {
          VE.default_matfree_options with
          VE.tol = 1e-14;
          mf_drop_negative = false;
          mf_clamp = false;
        }
      in
      let v, ess, stats = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
      stats.Linalg.Conjugate_gradient.converged
      && ess = ess_ref
      && close ~rtol:1e-6 v_ref v)

let prop_matfree_estimator_default_options_sane =
  QCheck.Test.make ~count:15
    ~name:
      "estimate_matfree_ess: default options keep ess accounting and \
       finiteness of the streaming path"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let v_ref, ess_ref = VE.estimate_streaming_ess ~r ~y:y_learn () in
      let v, ess, _ = VE.estimate_matfree_ess ~r ~y:y_learn () in
      ess = ess_ref
      && Array.length v = Array.length v_ref
      && Array.for_all (fun x -> Float.is_finite x && x >= 0.) v)

let prop_matfree_estimator_jobs_invariant =
  QCheck.Test.make ~count:10
    ~name:"estimate_matfree_ess: bit-for-bit identical for jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let v1, ess1, _ = VE.estimate_matfree_ess ~jobs:1 ~r ~y:y_learn () in
      List.for_all
        (fun jobs ->
          let v, ess, _ = VE.estimate_matfree_ess ~jobs ~r ~y:y_learn () in
          vec_bits_equal v1 v && ess = ess1)
        [ 2; 4 ])

let prop_full_sample_is_identity =
  QCheck.Test.make ~count:10
    ~name:"sample = 1.0: bit-for-bit the unsampled matrix-free estimate"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, _ = Generators.random_tree_trial seed in
      let np = Sparse.rows r in
      Bytes.for_all
        (fun c -> c = '\001')
        (Augmented.sample_mask ~np ~fraction:1.0 ~seed)
      && begin
           let options =
             { VE.default_matfree_options with VE.sample = Some (1.0, seed) }
           in
           let v_full, ess_full, _ = VE.estimate_matfree_ess ~r ~y:y_learn () in
           let v, ess, _ = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
           vec_bits_equal v_full v && ess = ess_full
         end)

(* --- end-to-end: Lia with --solver cgls vs dense ------------------------- *)

(* Lia.infer's two phases — Phase 1 under each solver, then a plan over
   Lia.plan_backend — with drop-negative and clamping off, so the Phase-1
   system keeps full column rank and both solvers reach its unique
   minimizer; Phase 2's grid order then keeps the same columns. [precond]
   goes to Phase 1 and, through Lia.plan_backend, to Phase 2, as
   [--precond] does. *)
let infer_cgls_matches_dense ~precond (r, y_learn, target) =
  let solver =
    Core.Lia.Cgls { tol = 1e-14; max_iter = None; sample = None; precond }
  in
  let serve solver variances =
    Core.Plan.solve
      (Core.Plan.make ~backend:(Core.Lia.plan_backend solver) ~r ~variances ())
      target.Netsim.Snapshot.y
  in
  let dense =
    serve Core.Lia.Dense
      (VE.estimate ~drop_negative:false ~clamp:false ~r ~y:y_learn ())
  in
  let options =
    {
      VE.default_matfree_options with
      VE.tol = 1e-14;
      mf_drop_negative = false;
      mf_clamp = false;
      mf_precond = precond;
    }
  in
  let v, _, _ = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
  let cgls = serve solver v in
  dense.Core.Plan.kept = cgls.Core.Plan.kept
  && close ~rtol:1e-6 dense.Core.Plan.variances cgls.Core.Plan.variances
  && close ~rtol:1e-6 dense.Core.Plan.loss_rates cgls.Core.Plan.loss_rates

let prop_infer_cgls_matches_dense =
  QCheck.Test.make ~count:12
    ~name:
      "Lia.infer solver:cgls: loss rates track the dense pipeline (full-rank \
       regime)"
    Generators.seed_arb
    (fun seed ->
      infer_cgls_matches_dense ~precond:VE.Pc_jacobi
        (Generators.random_tree_trial seed))

let prop_infer_block_jacobi_matches_dense =
  QCheck.Test.make ~count:20
    ~name:
      "Lia.infer solver:cgls + Pc_block_jacobi: loss rates track the dense \
       pipeline (full-rank regime, transit-stub AS partition)"
    Generators.seed_arb
    (fun seed ->
      let tb, red, r, y_learn, target = ts_campaign seed in
      infer_cgls_matches_dense
        ~precond:(VE.Pc_block_jacobi (as_groups tb red))
        (r, y_learn, target))

(* Input seed 371: two sibling leaf links whose variances tie in exact
   arithmetic come out of the dense solve 1 ulp apart, and out of CGLS
   equal *)
let test_cgls_matches_dense_on_tie () =
  Alcotest.(check bool) "same kept columns and estimates" true
    (infer_cgls_matches_dense ~precond:VE.Pc_jacobi
       (Generators.random_tree_trial 371))

(* Iteration counts do not depend on the host, so the preconditioners'
   effect is pinned exactly on one transit-stub instance with deep stubs
   (2 transit domains of 4 nodes, 2 stubs of 8 nodes per transit node,
   24 hosts, 552 paths; m = 50, tol 1e-8). Path lengths are skewed
   there: a backbone link sits in most pair rows, a stub-tail link in a
   handful. Block-Jacobi over the AS partition takes 2.12x fewer Phase-1
   iterations than Jacobi. *)
let test_precond_iteration_counts () =
  let rng = Rng.create 9224 in
  let tb =
    Topology.Transit_stub.generate rng ~transit_domains:2 ~transit_size:4
      ~stubs_per_transit_node:2 ~stub_size:8 ~hosts:24 ()
  in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:51 in
  let y_learn, _ = Netsim.Simulator.split_learning run ~learning:50 in
  let iterations precond =
    let options =
      { VE.default_matfree_options with VE.tol = 1e-8; mf_precond = precond }
    in
    let _, _, stats = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
    Alcotest.(check bool) "converged" true
      stats.Linalg.Conjugate_gradient.converged;
    stats.Linalg.Conjugate_gradient.iterations
  in
  Alcotest.(check int) "paths" 552 (Sparse.rows r);
  Alcotest.(check (list int)) "iterations: none, jacobi, block-jacobi"
    [ 131; 55; 26 ]
    (List.map iterations
       [ VE.Pc_none; VE.Pc_jacobi; VE.Pc_block_jacobi (as_groups tb red) ])

let prop_checked_cgls_verdict_parity =
  QCheck.Test.make ~count:12
    ~name:
      "Lia.infer_checked solver:cgls: same verdict as dense on faulted input, \
       jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r, y_learn, target = Generators.random_tree_trial seed in
      let spec = Generators.random_fault_spec seed in
      let y_learn, _ = Netsim.Faults.apply spec y_learn in
      let dense = Core.Lia.infer_checked ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
      let check jobs =
        let c =
          Core.Lia.infer_checked ~solver:Core.Lia.default_cgls ~jobs ~r ~y_learn
            ~y_now:target.Netsim.Snapshot.y ()
        in
        Core.Lia.health_label c.Core.Lia.health
        = Core.Lia.health_label dense.Core.Lia.health
        && Option.is_some c.Core.Lia.result
           = Option.is_some dense.Core.Lia.result
        && (match c.Core.Lia.result with
           | None -> true
           | Some res ->
               Array.for_all Float.is_finite res.Core.Lia.loss_rates
               && Array.for_all Float.is_finite res.Core.Lia.variances)
      in
      List.for_all check [ 1; 2; 4 ])

(* --- Plan Cgls backend --------------------------------------------------- *)

let prop_plan_cgls_matches_dense_qr =
  QCheck.Test.make ~count:15
    ~name:"Plan backend Cgls: solves track Dense_qr to solver tolerance"
    Generators.seed_arb
    (fun seed ->
      let r, variances, y = Generators.random_instance seed in
      let y_now = Matrix.row y 0 in
      let dense = Core.Plan.solve (Core.Plan.make ~r ~variances ()) y_now in
      let backend = Core.Plan.Cgls { tol = 1e-12; max_iter = None; precond = Core.Variance_estimator.Pc_none } in
      let plan = Core.Plan.make ~backend ~r ~variances () in
      let it = Core.Plan.solve plan y_now in
      Core.Plan.backend plan = backend
      && close ~rtol:1e-6 dense.Core.Plan.loss_rates it.Core.Plan.loss_rates
      && dense.Core.Plan.kept = it.Core.Plan.kept)

let prop_plan_cgls_batch_matches_solve =
  QCheck.Test.make ~count:12
    ~name:"Plan backend Cgls: solve_batch row = solve, bit-for-bit, jobs in {1,2,4}"
    Generators.seed_arb
    (fun seed ->
      let r, variances, y = Generators.random_instance seed in
      let backend = Core.Plan.Cgls { tol = 1e-12; max_iter = None; precond = Core.Variance_estimator.Pc_none } in
      let plan = Core.Plan.make ~backend ~r ~variances () in
      let singles =
        Array.init (Matrix.rows y) (fun l -> Core.Plan.solve plan (Matrix.row y l))
      in
      List.for_all
        (fun jobs ->
          let batch = Core.Plan.solve_batch ~jobs plan y in
          Array.length batch = Array.length singles
          && Array.for_all2
               (fun (b : Core.Plan.result) (s : Core.Plan.result) ->
                 vec_bits_equal b.Core.Plan.loss_rates s.Core.Plan.loss_rates
                 && vec_bits_equal b.Core.Plan.transmission
                      s.Core.Plan.transmission)
               batch singles)
        [ 1; 2; 4 ])

(* --- nonconvergence reporting -------------------------------------------- *)

let test_cgls_nonconvergence_reported () =
  let m = Generators.random_dense 97 in
  let rng = Rng.create 97 in
  let b = random_vec rng (Matrix.rows m) in
  let _, stats = Lsqr.cgls ~tol:1e-15 ~max_iter:1 (Lsqr.of_dense m) b in
  Alcotest.(check bool) "starved solve did not converge" false
    stats.Linalg.Conjugate_gradient.converged;
  Alcotest.(check int) "one iteration ran" 1
    stats.Linalg.Conjugate_gradient.iterations;
  Alcotest.(check bool) "relative residual is positive" true
    (stats.Linalg.Conjugate_gradient.relative_residual > 0.)

(* the nan pin: a zero-norm rhs (or one annihilated by the transpose)
   historically produced relative_residual = 0/0 = nan; the guard pins
   the whole stats record to a clean converged zero *)
let test_cgls_zero_rhs () =
  let r = routing_of_seed 5 in
  let op = Lsqr.of_sparse r in
  let b = Vector.zeros op.Lsqr.rows in
  let x, stats = Lsqr.cgls op b in
  Alcotest.(check bool) "solution is exactly zero" true
    (Array.for_all (fun v -> v = 0.) x);
  Alcotest.(check int) "no iterations spent" 0
    stats.Linalg.Conjugate_gradient.iterations;
  Alcotest.(check bool) "reported converged" true
    stats.Linalg.Conjugate_gradient.converged;
  Alcotest.(check (float 0.)) "relative residual pinned to 0, not nan" 0.
    stats.Linalg.Conjugate_gradient.relative_residual

let test_sample_mask_fraction () =
  let np = 60 in
  let n = Augmented.row_count ~np in
  let count mask =
    let c = ref 0 in
    Bytes.iter (fun b -> if b = '\001' then incr c) mask;
    !c
  in
  let half = Augmented.sample_mask ~np ~fraction:0.5 ~seed:3 in
  Alcotest.(check bool) "same seed, same mask" true
    (Bytes.equal half (Augmented.sample_mask ~np ~fraction:0.5 ~seed:3));
  Alcotest.(check bool) "fraction 0.5 keeps roughly half" true
    (abs ((2 * count half) - n) < n / 4);
  Alcotest.(check int) "fraction 0 keeps nothing" 0
    (count (Augmented.sample_mask ~np ~fraction:0. ~seed:3));
  (* the sketch through the estimator: a seeded half of the pair rows
     drops the only row of some leaf links, and the estimate stays
     finite and repeats bit for bit *)
  let r, y_learn, _ = Generators.random_tree_trial 3 in
  let sketch () =
    let options =
      { VE.default_matfree_options with VE.sample = Some (0.5, 99) }
    in
    let v, _, _ = VE.estimate_matfree_ess ~options ~r ~y:y_learn () in
    v
  in
  let s1 = sketch () in
  Alcotest.(check bool) "fraction 0.5 sketch repeats bit for bit" true
    (vec_bits_equal s1 (sketch ()));
  Alcotest.(check bool) "fraction 0.5 sketch is finite" true
    (Array.for_all Float.is_finite s1)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_pairs_match_brute_force;
      prop_streaming_matches_all_pairs;
      prop_theorem1_every_family;
      prop_ordered_phase1_keeps_natural_plan;
      prop_live_rows_match_build;
      prop_live_rows_jobs_invariant;
      prop_column_counts_exact;
      prop_cgls_matches_qr;
      prop_scaled_columns_unchanged_minimizer;
      prop_matfree_estimator_matches_streaming;
      prop_matfree_estimator_default_options_sane;
      prop_matfree_estimator_jobs_invariant;
      prop_full_sample_is_identity;
      prop_infer_cgls_matches_dense;
      prop_infer_block_jacobi_matches_dense;
      prop_checked_cgls_verdict_parity;
      prop_plan_cgls_matches_dense_qr;
      prop_plan_cgls_batch_matches_solve;
      prop_permuted_operator_matches;
      prop_precond_cgls_matches_qr;
      prop_block_jacobi_jobs_invariant;
    ]

let unit_tests =
  [
    Alcotest.test_case "cgls reports nonconvergence" `Quick
      test_cgls_nonconvergence_reported;
    Alcotest.test_case "cgls zero rhs: converged, residual 0, never nan" `Quick
      test_cgls_zero_rhs;
    Alcotest.test_case "sample_mask is seeded and honours the fraction" `Quick
      test_sample_mask_fraction;
    Alcotest.test_case "cgls keeps the dense columns on a variance tie (seed 371)"
      `Quick test_cgls_matches_dense_on_tie;
    Alcotest.test_case
      "precond iteration counts on a deep-stub transit-stub (24 hosts)" `Quick
      test_precond_iteration_counts;
  ]

let () =
  Alcotest.run "solver" [ ("matrix-free", properties); ("units", unit_tests) ]
