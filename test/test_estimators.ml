(* Tests for the EM/MLE first-moment baseline, the bootstrap confidence
   intervals, and cross-checks between the variance estimation paths. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Rng = Nstats.Rng
module Em = Core.Em_tomography
module VE = Core.Variance_estimator
module Ci = Core.Variance_ci

let close ?(tol = 1e-6) msg expected got = Alcotest.(check (float tol)) msg expected got

(* --- EM / MLE --------------------------------------------------------- *)

let test_em_single_link_exact () =
  (* one path over one link: the MLE is the empirical rate k/S *)
  let r = Sparse.create ~cols:1 [| [| 0 |] |] in
  let result = Em.estimate r ~delivered:[| 900 |] ~probes:1000 in
  close ~tol:1e-3 "MLE = k/S" 0.9 result.Em.transmission.(0)

let test_em_disjoint_links_exact () =
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |] in
  let result = Em.estimate r ~delivered:[| 500; 999 |] ~probes:1000 in
  close ~tol:1e-3 "link 0" 0.5 result.Em.transmission.(0);
  close ~tol:1e-3 "link 1" 0.999 result.Em.transmission.(1)

let test_em_chain_product_right () =
  (* two links in series observed by one path: only the product is
     determined; the MLE must reproduce it even though the split is
     arbitrary *)
  let r = Sparse.create ~cols:2 [| [| 0; 1 |] |] in
  let result = Em.estimate r ~delivered:[| 810 |] ~probes:1000 in
  close ~tol:1e-3 "product = 0.81"
    0.81
    (result.Em.transmission.(0) *. result.Em.transmission.(1))

let test_em_likelihood_increases () =
  let rng = Rng.create 3 in
  let tb = Topology.Tree_gen.generate rng ~nodes:60 ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let statuses = Netsim.Snapshot.draw_statuses rng config ~links:(Sparse.cols r) in
  let snap = Netsim.Snapshot.generate rng config ~congested:statuses r in
  let delivered = snap.Netsim.Snapshot.received in
  let start = Array.make (Sparse.cols r) 0.99 in
  let ll0 = Em.log_likelihood r ~delivered ~probes:1000 start in
  let result = Em.estimate r ~delivered ~probes:1000 in
  Alcotest.(check bool) "likelihood improved" true (result.Em.log_likelihood >= ll0);
  Array.iter
    (fun t -> Alcotest.(check bool) "rate in (0,1)" true (t > 0. && t < 1.))
    result.Em.transmission

let test_em_underdetermined_vs_lia () =
  (* the headline comparison: on a tree campaign, LIA's per-link errors
     beat the first-moment MLE's (which cannot place the loss within a
     path) *)
  let rng = Rng.create 7 in
  let tb = Topology.Tree_gen.generate rng ~nodes:150 ~max_branching:6 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Netsim.Simulator.run rng config r ~count:31 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:30 in
  let lia = Core.Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  let em =
    Em.estimate r ~delivered:target.Netsim.Snapshot.received ~probes:1000
  in
  let em_loss = Array.map (fun t -> 1. -. t) em.Em.transmission in
  let err v =
    Nstats.Descriptive.mean
      (Core.Metrics.absolute_errors ~actual:target.Netsim.Snapshot.realized
         ~inferred:v)
  in
  Alcotest.(check bool) "LIA at least as accurate" true
    (err lia.Core.Lia.loss_rates <= err em_loss +. 1e-9)

let test_em_validation () =
  Alcotest.check_raises "bad delivery count"
    (Invalid_argument "Em_tomography.estimate: delivery count out of range")
    (fun () ->
      ignore
        (Em.estimate
           (Sparse.create ~cols:1 [| [| 0 |] |])
           ~delivered:[| 2000 |] ~probes:1000))

(* --- Variance estimation cross-checks ---------------------------------- *)

let test_streaming_equals_explicit_a () =
  let rng = Rng.create 11 in
  let tb = Topology.Tree_gen.generate rng ~nodes:80 ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Netsim.Simulator.run rng config r ~count:25 in
  let y = run.Netsim.Simulator.y in
  let streaming = VE.estimate ~r ~y () in
  (* explicit A + normal equations, same drop-negative convention *)
  let a = Core.Augmented.build r in
  let sigma = Core.Covariance.sigma_star y in
  let explicit = Oracle.solve ~a ~sigma_star:sigma () in
  Alcotest.(check bool) "same solution" true
    (Vector.approx_equal ~tol:1e-6 streaming explicit)

(* --- Bootstrap confidence intervals ------------------------------------- *)

let ci_setup () =
  let rng = Rng.create 13 in
  let tb = Topology.Tree_gen.generate rng ~nodes:80 ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Netsim.Simulator.run rng config r ~count:40 in
  (rng, r, run.Netsim.Simulator.y, run.Netsim.Simulator.snapshots.(0))

let test_ci_contains_estimate () =
  let rng, r, y, _ = ci_setup () in
  let intervals = Ci.bootstrap ~replicates:30 rng ~r ~y in
  Array.iter
    (fun iv ->
      Alcotest.(check bool) "lo <= hi" true (iv.Ci.lo <= iv.Ci.hi);
      Alcotest.(check bool) "bounds sane" true (iv.Ci.lo >= 0.))
    intervals

let test_ci_congested_links_nonzero () =
  let rng, r, y, snap0 = ci_setup () in
  let intervals = Ci.bootstrap ~replicates:30 rng ~r ~y in
  (* statically congested links should have clearly positive variance *)
  Array.iteri
    (fun k c ->
      if c then
        Alcotest.(check bool) "congested lower bound positive" true
          (intervals.(k).Ci.lo > 0.))
    snap0.Netsim.Snapshot.congested

let test_ci_stable_ranking () =
  (* controlled case: three single-link paths, one link far noisier than
     the rest — its top-1 ranking must be provably separated, while a
     top-2 cut through the two near-identical quiet links must not be *)
  let rng = Rng.create 17 in
  let r = Sparse.create ~cols:3 [| [| 0 |]; [| 1 |]; [| 2 |] |] in
  let m = 60 in
  let y =
    Matrix.init m 3 (fun _ i ->
        let sd = if i = 0 then 1.0 else 0.01 in
        sd *. Rng.gaussian rng)
  in
  let intervals = Ci.bootstrap ~replicates:60 rng ~r ~y in
  Alcotest.(check bool) "loud link separated" true
    (Ci.stable_ranking intervals ~top:1);
  Alcotest.(check bool) "cut through twins not separated" false
    (Ci.stable_ranking intervals ~top:2)

let test_ci_validation () =
  let rng, r, y, _ = ci_setup () in
  Alcotest.check_raises "bad confidence"
    (Invalid_argument "Variance_ci.bootstrap: confidence out of (0,1)")
    (fun () -> ignore (Ci.bootstrap ~confidence:2. rng ~r ~y))

(* --- golden cross-estimator consistency -------------------------------- *)

module Estimator = Core.Estimator
module Measurement = Core.Measurement

(* One clean, identifiable tree campaign shared by the golden checks:
   every registry backend must be capable on it (variances are supplied
   so even [plan] runs) and must recover the final snapshot's realized
   losses within its documented golden bound. *)
let golden_campaign () =
  let rng = Rng.create 21 in
  let tb = Topology.Tree_gen.generate rng ~nodes:60 ~max_branching:4 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:41 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:40 in
  let lia = Core.Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  let input =
    Measurement.make ~routing:red ~variances:lia.Core.Lia.variances ~r ~y_learn
      ~y_now:target.Netsim.Snapshot.y ()
  in
  (input, target)

let test_golden_registry () =
  let input, target = golden_campaign () in
  let threshold = 0.01 in
  let actual_rates = target.Netsim.Snapshot.realized in
  let actual = Array.map (fun q -> q > threshold) actual_rates in
  List.iter
    (fun (e : Estimator.t) ->
      (match Estimator.check e input with
      | Ok () -> ()
      | Error reason ->
          Alcotest.failf "%s not capable on the golden tree: %s"
            e.Estimator.name reason);
      match e.Estimator.estimate ~threshold input with
      | Error reason -> Alcotest.failf "%s skipped: %s" e.Estimator.name reason
      | Ok out -> (
          Alcotest.(check string)
            (e.Estimator.name ^ " health") "clean" out.Estimator.health;
          match e.Estimator.golden with
          | Estimator.Abs_err tol -> (
              match out.Estimator.loss_rates with
              | None ->
                  Alcotest.failf "%s: rate backend returned no rates"
                    e.Estimator.name
              | Some rates ->
                  let mean =
                    Nstats.Descriptive.mean
                      (Core.Metrics.absolute_errors ~actual:actual_rates
                         ~inferred:rates)
                  in
                  if mean > tol then
                    Alcotest.failf "%s mean abs error %.4f exceeds %.4f"
                      e.Estimator.name mean tol)
          | Estimator.Detection { min_dr; max_fpr } -> (
              match out.Estimator.verdicts with
              | None ->
                  Alcotest.failf "%s: no verdicts returned" e.Estimator.name
              | Some verdicts ->
                  let loc = Core.Metrics.location ~actual ~inferred:verdicts in
                  if loc.Core.Metrics.dr < min_dr then
                    Alcotest.failf "%s detection rate %.2f below %.2f"
                      e.Estimator.name loc.Core.Metrics.dr min_dr;
                  if loc.Core.Metrics.fpr > max_fpr then
                    Alcotest.failf "%s false-positive rate %.2f above %.2f"
                      e.Estimator.name loc.Core.Metrics.fpr max_fpr)))
    Estimator.all

let test_registry_names () =
  Alcotest.(check (list string))
    "registry order"
    [
      "minc";
      "em";
      "mils";
      "scfs";
      "clink";
      "fourier";
      "plan";
      "lia-dense";
      "lia-cgls";
    ]
    Estimator.names;
  Alcotest.(check bool) "find hit" true (Estimator.find "lia-dense" <> None);
  Alcotest.(check bool) "find miss" true (Estimator.find "bogus" = None)

(* --- adapter bit-identity (qcheck) -------------------------------------- *)

let adapter name =
  match Estimator.find name with
  | Some e -> e
  | None -> Alcotest.failf "estimator %s missing from registry" name

let adapter_rates name input =
  match (adapter name).Estimator.estimate ~threshold:0.01 input with
  | Ok { Estimator.loss_rates = Some rates; _ } -> rates
  | Ok _ -> Alcotest.failf "%s returned no rates" name
  | Error reason -> Alcotest.failf "%s skipped: %s" name reason

let trial_input seed =
  let r, y_learn, target = Generators.random_tree_trial seed in
  Measurement.make ~r ~y_learn ~y_now:target.Netsim.Snapshot.y ()

let prop_em_wrapper_bit_identical =
  QCheck.Test.make ~count:12 ~name:"estimate_input = estimate (bit-for-bit)"
    Generators.seed_arb (fun seed ->
      let input = trial_input seed in
      let via_input = Em.estimate_input input in
      let direct =
        Em.estimate input.Measurement.r
          ~delivered:(Measurement.delivered input)
          ~probes:input.Measurement.probes
      in
      Generators.vec_bits_equal via_input.Em.transmission
        direct.Em.transmission
      && via_input.Em.sweeps = direct.Em.sweeps)

let prop_em_adapter_bit_identical =
  QCheck.Test.make ~count:12 ~name:"em adapter = direct module call"
    Generators.seed_arb (fun seed ->
      let input = trial_input seed in
      let direct = Em.estimate_input input in
      Generators.vec_bits_equal
        (adapter_rates "em" input)
        (Array.map (fun t -> 1. -. t) direct.Em.transmission))

let prop_mils_adapter_bit_identical =
  QCheck.Test.make ~count:12 ~name:"mils adapter = direct module call"
    Generators.seed_arb (fun seed ->
      let input = trial_input seed in
      let direct = Core.Mils.estimate input in
      Generators.vec_bits_equal
        (adapter_rates "mils" input)
        direct.Core.Mils.loss_rates)

let prop_lia_adapter_bit_identical =
  QCheck.Test.make ~count:10 ~name:"lia-dense adapter = infer_checked"
    Generators.seed_arb (fun seed ->
      let input = trial_input seed in
      let checked =
        Core.Lia.infer_checked ~solver:Core.Lia.Dense ~r:input.Measurement.r
          ~y_learn:input.Measurement.y_learn ~y_now:input.Measurement.y_now ()
      in
      match checked.Core.Lia.result with
      | None -> false
      | Some direct ->
          Generators.vec_bits_equal
            (adapter_rates "lia-dense" input)
            direct.Core.Lia.loss_rates)

let prop_scfs_adapter_bit_identical =
  QCheck.Test.make ~count:12 ~name:"scfs adapter = direct module call"
    Generators.seed_arb (fun seed ->
      let input = trial_input seed in
      let threshold = 0.01 in
      let bad =
        Core.Scfs.classify_paths input.Measurement.r
          ~y_now:input.Measurement.y_now ~threshold
      in
      let direct = Core.Scfs.infer input.Measurement.r ~bad_paths:bad in
      match (adapter "scfs").Estimator.estimate ~threshold input with
      | Ok { Estimator.verdicts = Some v; _ } -> v = direct
      | _ -> false)

let () =
  Alcotest.run "estimators"
    [
      ( "em",
        [
          Alcotest.test_case "single link exact" `Quick test_em_single_link_exact;
          Alcotest.test_case "disjoint links exact" `Quick test_em_disjoint_links_exact;
          Alcotest.test_case "chain product" `Quick test_em_chain_product_right;
          Alcotest.test_case "likelihood increases" `Quick test_em_likelihood_increases;
          Alcotest.test_case "underdetermined vs LIA" `Slow
            test_em_underdetermined_vs_lia;
          Alcotest.test_case "validation" `Quick test_em_validation;
        ] );
      ( "variance-estimation",
        [
          Alcotest.test_case "streaming = explicit A" `Quick
            test_streaming_equals_explicit_a;
        ] );
      ( "bootstrap",
        [
          Alcotest.test_case "interval sanity" `Slow test_ci_contains_estimate;
          Alcotest.test_case "congested nonzero" `Slow test_ci_congested_links_nonzero;
          Alcotest.test_case "stable ranking" `Slow test_ci_stable_ranking;
          Alcotest.test_case "validation" `Quick test_ci_validation;
        ] );
      ( "golden-registry",
        [
          Alcotest.test_case "every backend within its bound" `Slow
            test_golden_registry;
          Alcotest.test_case "registry names" `Quick test_registry_names;
        ] );
      ( "adapter-identity",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_em_wrapper_bit_identical;
            prop_em_adapter_bit_identical;
            prop_mils_adapter_bit_identical;
            prop_lia_adapter_bit_identical;
            prop_scfs_adapter_bit_identical;
          ] );
    ]
