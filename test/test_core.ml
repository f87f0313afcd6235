(* Tests for the tomography core: augmented matrix (Definition 1),
   covariance flattening (eq. 7), variance identification (Theorem 1 /
   eq. 8), rank reduction (Section 5.2), the LIA algorithm, the SCFS
   baseline, metrics, cross-validation, AS location and duration
   analyses. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Qr = Linalg.Qr
module Rng = Nstats.Rng
module Augmented = Core.Augmented
module Covariance = Core.Covariance
module VE = Core.Variance_estimator
module RR = Core.Rank_reduction
module Lia = Core.Lia
module Scfs = Core.Scfs
module Metrics = Core.Metrics
module Validation = Core.Validation
module Duration = Core.Duration

let close ?(tol = 1e-9) msg expected got = Alcotest.(check (float tol)) msg expected got

(* The routing matrix of the paper's Figure 1 example (3 paths, 5 links). *)
let r_fig1 =
  Sparse.create ~cols:5 [| [| 0; 1 |]; [| 0; 2; 3 |]; [| 0; 2; 4 |] |]

(* --- Augmented (Definition 1) ------------------------------------------- *)

let test_row_index_roundtrip () =
  let np = 7 in
  for i = 0 to np - 1 do
    for j = i to np - 1 do
      let k = Augmented.row_index ~np ~i ~j in
      Alcotest.(check (pair int int)) "roundtrip" (i, j) (Augmented.row_pair ~np k)
    done
  done;
  Alcotest.(check int) "row count" 28 (Augmented.row_count ~np)

let test_row_index_invalid () =
  Alcotest.check_raises "j < i" (Invalid_argument "Augmented.row_index: bad pair")
    (fun () -> ignore (Augmented.row_index ~np:3 ~i:2 ~j:1))

let test_build_matches_paper_example () =
  (* The paper prints A for the Figure 1 network explicitly. *)
  let a = Augmented.build r_fig1 in
  let expected =
    [| [| 1.; 1.; 0.; 0.; 0. |];   (* (1,1) *)
       [| 1.; 0.; 0.; 0.; 0. |];   (* (1,2) *)
       [| 1.; 0.; 0.; 0.; 0. |];   (* (1,3) *)
       [| 1.; 0.; 1.; 1.; 0. |];   (* (2,2) *)
       [| 1.; 0.; 1.; 0.; 0. |];   (* (2,3) *)
       [| 1.; 0.; 1.; 0.; 1. |] |] (* (3,3) *)
  in
  Alcotest.(check bool) "A matches the paper" true
    (Matrix.approx_equal (Matrix.of_arrays expected) (Sparse.to_dense a))

let test_build_diagonal_rows_are_r () =
  let a = Augmented.build r_fig1 in
  for i = 0 to 2 do
    let k = Augmented.row_index ~np:3 ~i ~j:i in
    Alcotest.(check (array int)) "diagonal row = R row" (Sparse.row r_fig1 i)
      (Sparse.row a k)
  done

let test_full_column_rank_fig1 () =
  (* Lemma 3: single-beacon tree gives identifiable variances. *)
  Alcotest.(check int) "A full column rank" 5
    (Qr.matrix_rank (Sparse.to_dense (Augmented.build r_fig1)))

(* --- Covariance (eq. 7) -------------------------------------------------- *)

let test_sigma_star_alignment () =
  let y =
    Matrix.of_arrays
      [| [| 1.; 2.; 0. |]; [| 2.; 1.; 1. |]; [| 0.; 3.; -1. |]; [| 1.; 2.; 0.5 |] |]
  in
  let s = Covariance.sigma_star y in
  Alcotest.(check int) "length" 6 (Array.length s);
  let sigma = Nstats.Descriptive.covariance_matrix y in
  close "(0,0) is var of path 0" (Matrix.get sigma 0 0)
    s.(Augmented.row_index ~np:3 ~i:0 ~j:0);
  close "(0,2) is cov" (Matrix.get sigma 0 2) s.(Augmented.row_index ~np:3 ~i:0 ~j:2);
  close "(1,2) is cov" (Matrix.get sigma 1 2) s.(Augmented.row_index ~np:3 ~i:1 ~j:2)

let test_of_sigma_matrix () =
  let sigma = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 5. |] |] in
  let s = Covariance.of_sigma_matrix sigma in
  Alcotest.(check bool) "flatten" true (Vector.approx_equal [| 1.; 2.; 5. |] s)

(* --- Variance identification (Theorem 1) --------------------------------- *)

let exact_recovery r v_true =
  let rd = Sparse.to_dense r in
  let sigma = Matrix.mul (Matrix.mul rd (Matrix.diag v_true)) (Matrix.transpose rd) in
  let sigma_star = Covariance.of_sigma_matrix sigma in
  let a = Augmented.build r in
  Oracle.solve ~a ~sigma_star ()

let test_exact_recovery_fig1 () =
  let v_true = [| 0.01; 0.002; 0.005; 0.0001; 0.03 |] in
  let v = exact_recovery r_fig1 v_true in
  Alcotest.(check bool) "variances recovered exactly" true
    (Vector.approx_equal ~tol:1e-10 v v_true)

let test_exact_recovery_tree () =
  let rng = Rng.create 11 in
  let tb = Topology.Tree_gen.generate rng ~nodes:120 ~max_branching:6 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let nc = Sparse.cols r in
  let v_true = Array.init nc (fun k -> 1e-6 +. (0.001 *. float_of_int (k mod 13))) in
  let v = exact_recovery r v_true in
  Alcotest.(check bool) "tree recovery" true (Vector.approx_equal ~tol:1e-8 v v_true)

let test_exact_recovery_mesh () =
  (* Theorem 1: multi-beacon mesh topologies are identifiable too. *)
  let rng = Rng.create 13 in
  let tb = Topology.Waxman.generate rng ~nodes:60 ~hosts:8 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let nc = Sparse.cols r in
  let v_true = Array.init nc (fun k -> 1e-5 *. float_of_int (1 + (k mod 29))) in
  let v = exact_recovery r v_true in
  Alcotest.(check bool) "mesh recovery" true (Vector.approx_equal ~tol:1e-8 v v_true)

let test_mean_loss_rates_not_identifiable () =
  (* The contrast the paper opens with: first moments are NOT identifiable
     (R is rank deficient) even though second moments are. *)
  Alcotest.(check bool) "R rank deficient" true
    (Qr.matrix_rank (Sparse.to_dense r_fig1) < Sparse.cols r_fig1);
  Alcotest.(check int) "A full rank" 5
    (Qr.matrix_rank (Sparse.to_dense (Augmented.build r_fig1)))

let test_drop_negative_rows () =
  (* A consistent system plus one corrupted negative equation: dropping it
     restores the solution; keeping it perturbs the fit. *)
  let v_true = [| 0.01; 0.002; 0.005; 0.0001; 0.03 |] in
  let rd = Sparse.to_dense r_fig1 in
  let sigma = Matrix.mul (Matrix.mul rd (Matrix.diag v_true)) (Matrix.transpose rd) in
  let sigma_star = Covariance.of_sigma_matrix sigma in
  sigma_star.(1) <- -0.5;
  let a = Augmented.build r_fig1 in
  let dropped = Oracle.solve ~a ~sigma_star () in
  let kept =
    Oracle.solve
      ~options:{ Oracle.default_options with Oracle.drop_negative = false }
      ~a ~sigma_star ()
  in
  Alcotest.(check bool) "dropping recovers truth" true
    (Vector.approx_equal ~tol:1e-9 dropped v_true);
  Alcotest.(check bool) "keeping is perturbed" false
    (Vector.approx_equal ~tol:1e-3 kept v_true)

let test_methods_agree () =
  let rng = Rng.create 17 in
  let tb = Topology.Tree_gen.generate rng ~nodes:60 ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1 in
  let run = Netsim.Simulator.run rng config r ~count:30 in
  let v_ne = VE.estimate ~r ~y:run.Netsim.Simulator.y () in
  let v_qr =
    Oracle.estimate
      ~options:{ Oracle.default_options with Oracle.method_ = Oracle.Dense_qr }
      ~r ~y:run.Netsim.Simulator.y ()
  in
  Alcotest.(check bool) "normal equations = dense QR" true
    (Vector.approx_equal ~tol:1e-5 v_ne v_qr)

let test_clamp_option () =
  (* negative solution components are clamped to zero by default *)
  let r = Sparse.create ~cols:1 [| [| 0 |] |] in
  let a = Augmented.build r in
  let v =
    Oracle.solve ~a ~sigma_star:[| -1. |]
      ~options:{ Oracle.default_options with Oracle.drop_negative = false } ()
  in
  close "clamped at zero" 0. v.(0)

(* A Figure-2-style aggregation: beacons B1 and B2 each probe D1, D2, D3
   through a shared core (B1 -> r, B2 -> s, r <-> s). Like the paper's
   Figure 2 matrix, R is rank deficient (rank 5 here) while the augmented
   matrix still has full column rank (Theorem 1). Columns: 0:B1->r,
   1:r->D1, 2:r->s, 3:s->D2, 4:s->D3, 5:B2->s, 6:s->r. *)
let r_fig2 =
  Sparse.create ~cols:7
    [| [| 0; 1 |]; [| 0; 2; 3 |]; [| 0; 2; 4 |];
       [| 1; 5; 6 |]; [| 3; 5 |]; [| 4; 5 |] |]

let test_fig2_rank_and_identifiability () =
  Alcotest.(check int) "rank(R) = 5 < min(6, 7), as in Figure 2" 5
    (Qr.matrix_rank (Sparse.to_dense r_fig2));
  Alcotest.(check bool) "A full column rank (Theorem 1)" true
    (Core.Identifiability.is_identifiable r_fig2)

let test_fig2_exact_recovery () =
  let v_true = [| 2e-3; 1e-4; 3e-3; 5e-4; 7e-4; 1.5e-3; 2e-4 |] in
  let v = exact_recovery r_fig2 v_true in
  Alcotest.(check bool) "multi-beacon variances recovered" true
    (Vector.approx_equal ~tol:1e-10 v v_true)

(* --- Rank reduction (Section 5.2) ----------------------------------------- *)

let test_eliminate_keeps_full_rank () =
  let rng = Rng.create 19 in
  let tb = Topology.Tree_gen.generate rng ~nodes:150 ~max_branching:8 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let v = Array.init (Sparse.cols r) (fun k -> float_of_int ((k * 7919) mod 101)) in
  let { RR.kept; removed } = RR.eliminate r v in
  Alcotest.(check int) "partition"
    (Sparse.cols r)
    (Array.length kept + Array.length removed);
  let r_star = Sparse.dense_cols r kept in
  Alcotest.(check int) "R* full column rank" (Array.length kept)
    (Qr.matrix_rank r_star)

let test_eliminate_suffix_semantics () =
  (* Crafted case where the paper's rule differs from greedy selection:
     columns (by ascending variance) c0 = e1, c1 = e2, c2 = e1 + e2, c3 = e3.
     Paper: removing c0 leaves {c1, c2, c3} independent -> kept = 3 columns
     including the dependent-looking c2. Greedy (descending) would keep
     {c3, c2, c1} too... distinguish with c2 = e1+e2 ranked highest:
     descending order c3, c2, c1, c0: greedy keeps c3, c2, c1 and drops c0;
     paper's rule also keeps {c1, c2, c3}. Use instead variances putting
     e1, e2 on top: descending c0, c1, c2', c3 where c2' = e1 + e2 is now
     dependent when reached -> paper stops and removes both c2' and c3 even
     though c3 = e3 is independent; greedy keeps c3. *)
  let r =
    Sparse.create ~cols:4
      [| [| 0; 2 |]; [| 1; 2 |]; [| 3 |] |]
  in
  (* columns: 0 -> {p0}, 1 -> {p1}, 2 -> {p0,p1}, 3 -> {p2} *)
  let v = [| 10.; 9.; 2.; 1. |] in
  (* descending order: c0, c1, c2 (dependent on c0+c1), c3 *)
  let paper = RR.eliminate r v in
  Alcotest.(check (array int)) "paper rule stops at first dependency"
    [| 0; 1 |] paper.RR.kept;
  let greedy = RR.eliminate_greedy r v in
  Alcotest.(check (array int)) "greedy keeps later independent column"
    [| 0; 1; 3 |] greedy.RR.kept

let test_eliminate_all_independent () =
  let r = Sparse.create ~cols:3 [| [| 0 |]; [| 1 |]; [| 2 |] |] in
  let { RR.kept; removed } = RR.eliminate r [| 3.; 1.; 2. |] in
  Alcotest.(check int) "keeps everything" 3 (Array.length kept);
  Alcotest.(check int) "removes nothing" 0 (Array.length removed);
  Alcotest.(check (array int)) "descending variance order" [| 0; 2; 1 |] kept

let test_greedy_superset_of_paper () =
  let rng = Rng.create 23 in
  let tb = Topology.Waxman.generate rng ~nodes:50 ~hosts:8 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let v = Array.init (Sparse.cols r) (fun k -> float_of_int ((k * 31) mod 17)) in
  let paper = RR.eliminate r v and greedy = RR.eliminate_greedy r v in
  Alcotest.(check bool) "greedy keeps at least as many" true
    (Array.length greedy.RR.kept >= Array.length paper.RR.kept)

(* --- LIA end to end --------------------------------------------------------- *)

let lia_tree_setup seed =
  let rng = Rng.create seed in
  let tb = Topology.Tree_gen.generate rng ~nodes:300 ~max_branching:8 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1 in
  let run = Netsim.Simulator.run rng config r ~count:31 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:30 in
  (r, y_learn, target)

let test_lia_detects_congested_links () =
  let r, y_learn, target = lia_tree_setup 29 in
  let res = Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  let inferred = Lia.congested res ~threshold:0.002 in
  let loc = Metrics.location ~actual:target.Netsim.Snapshot.congested ~inferred in
  Alcotest.(check bool) "DR above 0.9" true (loc.Metrics.dr > 0.9);
  Alcotest.(check bool) "FPR below 0.15" true (loc.Metrics.fpr < 0.15)

let test_lia_loss_rate_accuracy () =
  let r, y_learn, target = lia_tree_setup 31 in
  let res = Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  let errs =
    Metrics.absolute_errors ~actual:target.Netsim.Snapshot.realized
      ~inferred:res.Lia.loss_rates
  in
  let sp = Metrics.spread errs in
  Alcotest.(check bool) "median error tiny" true (sp.Metrics.median < 0.005);
  Alcotest.(check bool) "max error bounded" true (sp.Metrics.max < 0.05)

let test_lia_removed_links_get_zero_loss () =
  let r, y_learn, target = lia_tree_setup 37 in
  let res = Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  Array.iter
    (fun j ->
      close "removed -> transmission 1" 1. res.Lia.transmission.(j);
      close "removed -> loss 0" 0. res.Lia.loss_rates.(j))
    res.Lia.removed

let test_lia_transmission_clamped () =
  let r, y_learn, target = lia_tree_setup 41 in
  let res = Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  Array.iter
    (fun t -> Alcotest.(check bool) "in (0,1]" true (t > 0. && t <= 1.))
    res.Lia.transmission

let test_lia_with_variances_reuse () =
  let r, y_learn, target = lia_tree_setup 43 in
  let v = VE.estimate ~r ~y:y_learn () in
  let a = Core.Plan.solve (Core.Plan.make ~r ~variances:v ()) target.Netsim.Snapshot.y in
  let b = Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  Alcotest.(check bool) "same result" true
    (Vector.approx_equal ~tol:1e-12 a.Lia.loss_rates b.Lia.loss_rates)

let test_lia_dimension_checks () =
  let r, y_learn, _ = lia_tree_setup 47 in
  Alcotest.check_raises "bad measurement length"
    (Invalid_argument "Lia: measurement length mismatch") (fun () ->
      ignore
        (Lia.infer ~r ~y_learn ~y_now:[| 0. |] ()))

(* --- SCFS ---------------------------------------------------------------------- *)

let test_scfs_tree_example () =
  (* Figure-1 tree: if both paths through link 2 are bad and the third is
     good, SCFS blames the shared link 2 only. *)
  let bad_paths = [| false; true; true |] in
  let verdict = Scfs.infer r_fig1 ~bad_paths in
  Alcotest.(check (array bool)) "blames shared link"
    [| false; false; true; false; false |]
    verdict

let test_scfs_good_path_exonerates () =
  (* All paths bad except path 0, which crosses links 0 and 1: those can
     never be blamed. *)
  let bad_paths = [| false; true; true |] in
  let verdict = Scfs.infer r_fig1 ~bad_paths in
  Alcotest.(check bool) "link 0 exonerated" false verdict.(0);
  Alcotest.(check bool) "link 1 exonerated" false verdict.(1)

let test_scfs_single_bad_leaf () =
  let bad_paths = [| true; false; false |] in
  let verdict = Scfs.infer r_fig1 ~bad_paths in
  (* only path 0 bad: candidate links are those on path 0 and no good path:
     link 1 (private to path 0); smallest set = {1} *)
  Alcotest.(check (array bool)) "private link blamed"
    [| false; true; false; false; false |]
    verdict

let test_scfs_nothing_bad () =
  let verdict = Scfs.infer r_fig1 ~bad_paths:[| false; false; false |] in
  Alcotest.(check bool) "nothing blamed" true (Array.for_all not verdict)

let test_scfs_classify_paths () =
  let y = [| log 0.999; log 0.85 |] in
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |] in
  let bad = Scfs.classify_paths r ~y_now:y ~threshold:0.002 in
  Alcotest.(check (array bool)) "classification" [| false; true |] bad

(* --- Metrics --------------------------------------------------------------------- *)

let test_metrics_location () =
  let actual = [| true; true; false; false; true |] in
  let inferred = [| true; false; true; false; true |] in
  let { Metrics.dr; fpr } = Metrics.location ~actual ~inferred in
  close "dr" (2. /. 3.) dr;
  close "fpr" (1. /. 3.) fpr

let test_metrics_location_empty_cases () =
  let none = Metrics.location ~actual:[| false |] ~inferred:[| false |] in
  close "dr with no failures" 1. none.Metrics.dr;
  close "fpr with no flags" 0. none.Metrics.fpr

let test_metrics_error_factor () =
  close "identical" 1. (Metrics.error_factor 0.1 0.1);
  close "double" 2. (Metrics.error_factor 0.1 0.05);
  close "floored" 1. (Metrics.error_factor 0.0001 0.0);
  close "floored ratio" 2. (Metrics.error_factor 0.002 0.0)

let test_metrics_pp () =
  let loc = { Metrics.dr = 0.955; fpr = 0.031 } in
  Alcotest.(check string) "pp_location" "DR=95.50% FPR=3.10%"
    (Format.asprintf "%a" Metrics.pp_location loc);
  let sp = { Metrics.max = 0.1; median = 0.01; min = 0. } in
  Alcotest.(check string) "pp_spread" "max=0.1 median=0.01 min=0"
    (Format.asprintf "%a" Metrics.pp_spread sp)

let test_validation_epsilon_boundary () =
  let r = Sparse.create ~cols:1 [| [| 0 |] |] in
  let report ~eps ~measured =
    Validation.check_paths ~r ~covered:[| true |] ~transmission:[| 0.9 |]
      ~rows:[| 0 |] ~y_now:[| log measured |] ~epsilon:eps
  in
  (* |measured - predicted| = 0.01 exactly at epsilon -> consistent *)
  Alcotest.(check int) "boundary counts as consistent" 1
    (report ~eps:0.010000001 ~measured:0.91).Validation.consistent;
  Alcotest.(check int) "beyond boundary fails" 0
    (report ~eps:0.0099 ~measured:0.91).Validation.consistent

let test_metrics_spread () =
  let sp = Metrics.spread [| 3.; 1.; 2. |] in
  close "max" 3. sp.Metrics.max;
  close "median" 2. sp.Metrics.median;
  close "min" 1. sp.Metrics.min

(* --- Validation (eq. 11) ----------------------------------------------------------- *)

let test_validation_split_partition () =
  let rng = Rng.create 51 in
  let a, b = Validation.split rng ~paths:101 in
  Alcotest.(check int) "sizes" 101 (Array.length a + Array.length b);
  let seen = Array.make 101 false in
  Array.iter (fun i -> seen.(i) <- true) a;
  Array.iter (fun i -> seen.(i) <- true) b;
  Alcotest.(check bool) "partition covers all" true (Array.for_all (fun x -> x) seen)

let test_validation_perfect_inference () =
  (* if transmission rates are exact and cover everything, every validation
     path is consistent for any epsilon *)
  let r = r_fig1 in
  let trans = [| 0.95; 0.99; 0.9; 0.98; 0.97 |] in
  let y_now =
    Array.init 3 (fun i ->
        Array.fold_left (fun acc j -> acc +. log trans.(j)) 0. (Sparse.row r i))
  in
  let report =
    Validation.check_paths ~r ~covered:(Array.make 5 true) ~transmission:trans
      ~rows:[| 0; 1; 2 |] ~y_now ~epsilon:1e-9
  in
  Alcotest.(check int) "all consistent" 3 report.Validation.consistent

let test_validation_detects_inconsistency () =
  let r = r_fig1 in
  let trans = [| 0.5; 0.99; 0.9; 0.98; 0.97 |] in
  let y_now = [| log 0.99; log 0.99; log 0.99 |] in
  let report =
    Validation.check_paths ~r ~covered:(Array.make 5 true) ~transmission:trans
      ~rows:[| 0; 1; 2 |] ~y_now ~epsilon:0.005
  in
  Alcotest.(check int) "none consistent" 0 report.Validation.consistent

let test_validation_cross_validate_end_to_end () =
  (* dense coverage (many hosts on a small core) and the internet loss
     model: the Section 7 regime where eq. (11) consistency is high *)
  let rng = Rng.create 53 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:30 ~ases:10 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.internet in
  let run = Netsim.Simulator.run rng config r ~count:31 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:30 in
  let report =
    Validation.cross_validate rng ~r ~y_learn ~y_now:target.Netsim.Snapshot.y
      ~epsilon:0.005
  in
  Alcotest.(check bool) "mostly consistent" true (report.Validation.fraction > 0.8)

(* --- As_location -------------------------------------------------------------------- *)

let test_as_location () =
  let nodes =
    Array.init 4 (fun i ->
        { Topology.Graph.id = i;
          kind = (if i = 0 || i = 3 then Topology.Graph.Host else Topology.Graph.Router);
          as_id = (if i < 2 then 0 else 1) })
  in
  let graph = Topology.Graph.create ~nodes ~edges:[| (0, 1); (1, 2); (2, 3) |] in
  let red =
    Topology.Routing.build graph ~beacons:[| 0 |] ~destinations:[| 3 |]
  in
  (* single path, all three edges collapse into one virtual link crossing
     an AS boundary *)
  let report =
    Core.As_location.classify ~graph ~routing:red ~loss_rates:[| 0.1 |]
      ~threshold:0.01
  in
  Alcotest.(check int) "inter" 1 report.Core.As_location.inter;
  Alcotest.(check int) "intra" 0 report.Core.As_location.intra;
  close "fraction" 1. (Core.As_location.inter_fraction report)

let test_as_location_threshold () =
  let nodes =
    Array.init 3 (fun i ->
        { Topology.Graph.id = i;
          kind = (if i <> 1 then Topology.Graph.Host else Topology.Graph.Router);
          as_id = 0 })
  in
  let graph = Topology.Graph.create ~nodes ~edges:[| (0, 1); (1, 2) |] in
  let red = Topology.Routing.build graph ~beacons:[| 0 |] ~destinations:[| 2 |] in
  let report =
    Core.As_location.classify ~graph ~routing:red ~loss_rates:[| 0.005 |]
      ~threshold:0.01
  in
  Alcotest.(check int) "below threshold not counted" 0
    (report.Core.As_location.inter + report.Core.As_location.intra)

(* --- Duration ------------------------------------------------------------------------- *)

let test_duration_runs () =
  let series =
    [| [| true; false |]; [| true; false |]; [| false; true |]; [| true; true |] |]
  in
  let lengths = List.sort compare (Duration.runs series) in
  (* link 0: run of 2, then run of 1; link 1: run of 2 *)
  Alcotest.(check (list int)) "runs" [ 1; 2; 2 ] lengths

let test_duration_distribution () =
  let d = Duration.distribution [ 1; 1; 1; 2 ] in
  Alcotest.(check (list (pair int (float 1e-9)))) "distribution"
    [ (1, 0.75); (2, 0.25) ] d;
  close "fraction of length 1" 0.75 (Duration.fraction_of_length [ 1; 1; 1; 2 ] 1);
  close "fraction of absent length" 0. (Duration.fraction_of_length [ 1 ] 5)

let test_duration_empty () =
  Alcotest.(check (list int)) "no snapshots" [] (Duration.runs [||]);
  Alcotest.(check (list (pair int (float 1e-9)))) "no runs" []
    (Duration.distribution [])

(* --- Properties: Theorem 1 on random topologies ---------------------------------------- *)

let prop_theorem1_trees =
  QCheck.Test.make ~count:15
    ~name:"Theorem 1: A has full column rank on random trees; v recovered"
    QCheck.(int_range 20 120)
    (fun n ->
      let rng = Rng.create (n * 13) in
      let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:6 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let nc = Sparse.cols r in
      let v_true = Array.init nc (fun k -> 1e-5 *. float_of_int (1 + ((k * 7) mod 23))) in
      let v = exact_recovery r v_true in
      Vector.approx_equal ~tol:1e-7 v v_true)

let prop_theorem1_meshes =
  QCheck.Test.make ~count:10
    ~name:"Theorem 1: variances recovered on random multi-beacon meshes"
    QCheck.(int_range 25 60)
    (fun n ->
      let rng = Rng.create (n * 17) in
      let tb = Topology.Waxman.generate rng ~nodes:n ~hosts:6 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let nc = Sparse.cols r in
      let v_true = Array.init nc (fun k -> 1e-5 *. float_of_int (1 + ((k * 11) mod 31))) in
      let v = exact_recovery r v_true in
      Vector.approx_equal ~tol:1e-7 v v_true)

let prop_rank_reduction_partition =
  QCheck.Test.make ~count:30 ~name:"rank reduction: kept ∪ removed partitions columns"
    QCheck.(int_range 10 80)
    (fun n ->
      let rng = Rng.create (n * 19) in
      let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let v = Array.init (Sparse.cols r) (fun k -> float_of_int ((k * 3) mod 11)) in
      let { RR.kept; removed } = RR.eliminate r v in
      let seen = Array.make (Sparse.cols r) 0 in
      Array.iter (fun j -> seen.(j) <- seen.(j) + 1) kept;
      Array.iter (fun j -> seen.(j) <- seen.(j) + 1) removed;
      let k = Array.length kept in
      Array.for_all (fun c -> c = 1) seen
      && Qr.matrix_rank (Sparse.dense_cols r kept) = k
      (* maximal: the first removed column is dependent on the kept ones *)
      && (removed = [||]
         || Qr.matrix_rank (Sparse.dense_cols r (Array.append kept [| removed.(0) |]))
            = k))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_theorem1_trees; prop_theorem1_meshes; prop_rank_reduction_partition ]

let () =
  Alcotest.run "core"
    [
      ( "augmented",
        [
          Alcotest.test_case "row index roundtrip" `Quick test_row_index_roundtrip;
          Alcotest.test_case "row index invalid" `Quick test_row_index_invalid;
          Alcotest.test_case "matches paper example" `Quick
            test_build_matches_paper_example;
          Alcotest.test_case "diagonal rows" `Quick test_build_diagonal_rows_are_r;
          Alcotest.test_case "full column rank (fig 1)" `Quick
            test_full_column_rank_fig1;
        ] );
      ( "covariance",
        [
          Alcotest.test_case "sigma star alignment" `Quick test_sigma_star_alignment;
          Alcotest.test_case "of sigma matrix" `Quick test_of_sigma_matrix;
        ] );
      ( "variance_estimator",
        [
          Alcotest.test_case "exact recovery (fig 1)" `Quick test_exact_recovery_fig1;
          Alcotest.test_case "exact recovery (tree)" `Quick test_exact_recovery_tree;
          Alcotest.test_case "exact recovery (mesh)" `Quick test_exact_recovery_mesh;
          Alcotest.test_case "first moments unidentifiable" `Quick
            test_mean_loss_rates_not_identifiable;
          Alcotest.test_case "drop negative rows" `Quick test_drop_negative_rows;
          Alcotest.test_case "methods agree" `Quick test_methods_agree;
          Alcotest.test_case "clamp" `Quick test_clamp_option;
          Alcotest.test_case "figure 2 rank/identifiability" `Quick
            test_fig2_rank_and_identifiability;
          Alcotest.test_case "figure 2 exact recovery" `Quick
            test_fig2_exact_recovery;
        ] );
      ( "rank_reduction",
        [
          Alcotest.test_case "keeps full rank" `Quick test_eliminate_keeps_full_rank;
          Alcotest.test_case "suffix semantics vs greedy" `Quick
            test_eliminate_suffix_semantics;
          Alcotest.test_case "all independent" `Quick test_eliminate_all_independent;
          Alcotest.test_case "greedy keeps more" `Quick test_greedy_superset_of_paper;
        ] );
      ( "lia",
        [
          Alcotest.test_case "detects congested links" `Slow
            test_lia_detects_congested_links;
          Alcotest.test_case "loss rate accuracy" `Slow test_lia_loss_rate_accuracy;
          Alcotest.test_case "removed links zero loss" `Slow
            test_lia_removed_links_get_zero_loss;
          Alcotest.test_case "transmission clamped" `Slow test_lia_transmission_clamped;
          Alcotest.test_case "variance reuse" `Slow test_lia_with_variances_reuse;
          Alcotest.test_case "dimension checks" `Quick test_lia_dimension_checks;
        ] );
      ( "scfs",
        [
          Alcotest.test_case "tree example" `Quick test_scfs_tree_example;
          Alcotest.test_case "good path exonerates" `Quick
            test_scfs_good_path_exonerates;
          Alcotest.test_case "single bad leaf" `Quick test_scfs_single_bad_leaf;
          Alcotest.test_case "nothing bad" `Quick test_scfs_nothing_bad;
          Alcotest.test_case "classify paths" `Quick test_scfs_classify_paths;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "location" `Quick test_metrics_location;
          Alcotest.test_case "location empty cases" `Quick
            test_metrics_location_empty_cases;
          Alcotest.test_case "error factor" `Quick test_metrics_error_factor;
          Alcotest.test_case "spread" `Quick test_metrics_spread;
          Alcotest.test_case "pretty printers" `Quick test_metrics_pp;
        ] );
      ( "validation",
        [
          Alcotest.test_case "split partition" `Quick test_validation_split_partition;
          Alcotest.test_case "perfect inference" `Quick test_validation_perfect_inference;
          Alcotest.test_case "detects inconsistency" `Quick
            test_validation_detects_inconsistency;
          Alcotest.test_case "epsilon boundary" `Quick
            test_validation_epsilon_boundary;
          Alcotest.test_case "cross validate end-to-end" `Slow
            test_validation_cross_validate_end_to_end;
        ] );
      ( "as_location",
        [
          Alcotest.test_case "classify" `Quick test_as_location;
          Alcotest.test_case "threshold" `Quick test_as_location_threshold;
        ] );
      ( "duration",
        [
          Alcotest.test_case "runs" `Quick test_duration_runs;
          Alcotest.test_case "distribution" `Quick test_duration_distribution;
          Alcotest.test_case "empty" `Quick test_duration_empty;
        ] );
      ("properties", properties);
    ]
