(* Tests for the comparison methods of Table 1 (CLINK, MILS) and the
   Section 8 extensions (delay tomography, anomaly detection, streaming
   monitor). *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Rng = Nstats.Rng
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator
module Delay = Netsim.Delay
module Clink = Core.Clink
module Mils = Core.Mils
module Delay_lia = Core.Delay_lia
module Anomaly = Core.Anomaly
module Monitor = Core.Monitor

let close ?(tol = 1e-9) msg expected got = Alcotest.(check (float tol)) msg expected got

(* paper Figure 1 routing matrix: 3 paths, 5 links *)
let r_fig1 = Sparse.create ~cols:5 [| [| 0; 1 |]; [| 0; 2; 3 |]; [| 0; 2; 4 |] |]

(* two-beacon mesh of Figure 2 style: adds reverse-direction beacon *)
let tree_setup seed =
  let rng = Rng.create seed in
  let tb = Topology.Tree_gen.generate rng ~nodes:300 ~max_branching:8 () in
  let red = Topology.Testbed.routing tb in
  (rng, red.Topology.Routing.matrix)

(* --- CLINK ------------------------------------------------------------- *)

let test_clink_learn_probabilities () =
  (* single-link paths: good fraction maps directly to p_k *)
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |] in
  let model = Clink.learn ~r ~good_fraction:[| 0.9; 0.5 |] in
  close ~tol:1e-6 "p0" 0.1 model.Clink.congestion_prob.(0);
  close ~tol:1e-6 "p1" 0.5 model.Clink.congestion_prob.(1)

let test_clink_prior_breaks_ties () =
  (* one bad path over two candidate links; the habitually-congested link
     gets blamed *)
  let r = Sparse.create ~cols:2 [| [| 0; 1 |] |] in
  let model = { Clink.congestion_prob = [| 0.01; 0.6 |] } in
  let verdict = Clink.infer model r ~bad_paths:[| true |] in
  Alcotest.(check (array bool)) "blames the likely link" [| false; true |] verdict

let test_clink_good_paths_exonerate () =
  let model = { Clink.congestion_prob = Array.make 5 0.5 } in
  let verdict = Clink.infer model r_fig1 ~bad_paths:[| false; true; true |] in
  Alcotest.(check bool) "link on good path clean" false verdict.(0);
  Alcotest.(check bool) "link on good path clean" false verdict.(1)

let test_clink_good_fractions () =
  let r = Sparse.create ~cols:1 [| [| 0 |] |] in
  let y = Matrix.of_arrays [| [| log 0.999 |]; [| log 0.8 |]; [| log 0.9999 |] |] in
  let gf = Clink.good_fractions y ~r ~threshold:0.002 in
  close ~tol:1e-9 "two of three good" (2. /. 3.) gf.(0)

(* a missing cell is neither good nor congested: loss-free in its two
   observed snapshots is good every time *)
let test_clink_good_fractions_skip_missing () =
  let r = Sparse.create ~cols:1 [| [| 0 |] |] in
  let y =
    Matrix.of_arrays [| [| 0. |]; [| Float.nan |]; [| 0. |]; [| Float.nan |] |]
  in
  let gf = Clink.good_fractions y ~r ~threshold:0.002 in
  close ~tol:0. "observed snapshots only" 1. gf.(0)

let test_clink_beats_scfs_with_history () =
  (* Same trial: CLINK's learnt prior should not be worse than SCFS's
     uniform prior on average. Run a static campaign where one specific
     link is chronically congested. *)
  let rng, r = tree_setup 71 in
  let config =
    Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Simulator.run rng config r ~count:41 in
  let y_learn, target = Simulator.split_learning run ~learning:40 in
  let gf = Clink.good_fractions y_learn ~r ~threshold:0.002 in
  let model = Clink.learn ~r ~good_fraction:gf in
  let bad_paths =
    Core.Scfs.classify_paths r ~y_now:target.Snapshot.y ~threshold:0.002
  in
  let clink_verdict = Clink.infer model r ~bad_paths in
  let scfs_verdict = Core.Scfs.infer r ~bad_paths in
  let actual = target.Snapshot.congested in
  let c = Core.Metrics.location ~actual ~inferred:clink_verdict in
  let s = Core.Metrics.location ~actual ~inferred:scfs_verdict in
  Alcotest.(check bool) "clink detects at least as well" true
    (c.Core.Metrics.dr >= s.Core.Metrics.dr -. 0.15)

(* --- MILS ------------------------------------------------------------------- *)

let test_mils_identifiable_rows () =
  let t = Mils.prepare r_fig1 in
  for i = 0 to 2 do
    Alcotest.(check bool) "full rows identifiable" true
      (Mils.identifiable t (Sparse.row r_fig1 i))
  done

let test_mils_single_links_not_identifiable () =
  let t = Mils.prepare r_fig1 in
  (* rank(R) = 3 < 5: no single link of the figure-1 tree is identifiable *)
  for j = 0 to 4 do
    Alcotest.(check bool) "single link not identifiable" false
      (Mils.identifiable t [| j |])
  done

let test_mils_decompose_fig1 () =
  let t = Mils.prepare r_fig1 in
  let segments = Mils.decompose t in
  (* each path is its own minimal identifiable sequence here *)
  Array.iteri
    (fun i segs ->
      Alcotest.(check int) "one segment" 1 (List.length segs);
      Alcotest.(check (array int)) "segment is the path" (Sparse.row r_fig1 i)
        (List.hd segs))
    segments

let test_mils_finer_with_more_beacons () =
  (* with a second beacon probing the shared subtree directly, finer
     segments become identifiable *)
  let r2 =
    Sparse.create ~cols:5
      [| [| 0; 1 |]; [| 0; 2; 3 |]; [| 0; 2; 4 |]; [| 3 |]; [| 2; 4 |] |]
  in
  let t = Mils.prepare r2 in
  Alcotest.(check bool) "link 3 now identifiable" true (Mils.identifiable t [| 3 |]);
  let segs = Mils.decompose_path t [| 0; 2; 3 |] in
  Alcotest.(check bool) "path splits into >= 2 segments" true (List.length segs >= 2)

let test_mils_rates_exact_on_identifiable () =
  let r2 =
    Sparse.create ~cols:3 [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 1; 2 |]; [| 1 |] |]
  in
  let t = Mils.prepare r2 in
  let trans = [| 0.9; 0.8; 0.95 |] in
  let y =
    Array.init 4 (fun i ->
        Array.fold_left (fun acc j -> acc +. log trans.(j)) 0. (Sparse.row r2 i))
  in
  let segs = Mils.decompose t in
  let rates = Mils.segment_loss_rates t ~y_now:y segs in
  List.iter
    (fun (seg, rate) ->
      let expected =
        1. -. Array.fold_left (fun acc j -> acc *. trans.(j)) 1. seg
      in
      close ~tol:1e-6 "aggregate rate" expected rate)
    rates

let test_mils_average_length () =
  let segs = [| [ [| 0; 1 |]; [| 2 |] ]; [ [| 3; 4; 5 |] ] |] in
  close "avg" 2. (Mils.average_length segs)

(* --- Delay tomography ---------------------------------------------------------- *)

let test_delay_snapshot_additive () =
  let rng = Rng.create 81 in
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 0; 1 |] |] in
  let config = { Delay.default_config with Delay.jitter = 0. } in
  let network = Delay.make_network rng config ~links:2 in
  let snap = Delay.generate rng config network ~congested:[| true; false |] r in
  let expected0 = network.Delay.propagation.(0) +. snap.Delay.queueing.(0) in
  close ~tol:1e-9 "path 0 = link 0" expected0 snap.Delay.y.(0);
  close ~tol:1e-9 "path 1 adds link 1"
    (expected0 +. network.Delay.propagation.(1) +. snap.Delay.queueing.(1))
    snap.Delay.y.(1)

let test_delay_queueing_ranges () =
  let rng = Rng.create 83 in
  let r = Sparse.create ~cols:3 [| [| 0; 1; 2 |] |] in
  let config = Delay.default_config in
  let network = Delay.make_network rng config ~links:3 in
  for _ = 1 to 20 do
    let snap = Delay.generate rng config network ~congested:[| true; false; true |] r in
    Alcotest.(check bool) "congested queues heavily" true
      (snap.Delay.queueing.(0) >= 20. && snap.Delay.queueing.(2) >= 20.);
    Alcotest.(check bool) "good barely queues" true (snap.Delay.queueing.(1) <= 0.3)
  done

let test_delay_lia_end_to_end () =
  let rng, r = tree_setup 85 in
  let config = Delay.default_config in
  let network = Delay.make_network rng config ~links:(Sparse.cols r) in
  let snaps, y = Delay.run rng config network r ~count:51 in
  let y_learn = Matrix.init 50 (Sparse.rows r) (fun l i -> Matrix.get y l i) in
  let target = snaps.(50) in
  let result = Delay_lia.infer ~r ~y_learn ~y_now:target.Delay.y in
  let inferred = Delay_lia.congested result ~threshold:10. in
  let loc = Core.Metrics.location ~actual:target.Delay.congested ~inferred in
  Alcotest.(check bool) "delay DR high" true (loc.Core.Metrics.dr > 0.85);
  Alcotest.(check bool) "delay FPR low" true (loc.Core.Metrics.fpr < 0.25);
  (* queueing estimates of detected links within a few ms *)
  Array.iteri
    (fun k c ->
      if c && inferred.(k) then
        Alcotest.(check bool) "queueing magnitude right" true
          (Float.abs (result.Delay_lia.queueing.(k) -. target.Delay.queueing.(k))
          < 10.))
    target.Delay.congested

let test_delay_baselines () =
  let y = Matrix.of_arrays [| [| 5.; 2. |]; [| 3.; 4. |]; [| 7.; 1. |] |] in
  Alcotest.(check bool) "per-path minimum" true
    (Vector.approx_equal [| 3.; 1. |] (Delay_lia.baselines y))

(* --- Anomaly detection ------------------------------------------------------------ *)

let test_anomaly_learn_baseline () =
  let y = Matrix.of_arrays [| [| -0.1; -0.2 |]; [| -0.1; -0.4 |]; [| -0.1; -0.3 |] |] in
  let model = Anomaly.learn y in
  close ~tol:1e-9 "mean path 0" (-0.1) model.Anomaly.mean.(0);
  close ~tol:1e-9 "mean path 1" (-0.3) model.Anomaly.mean.(1);
  close ~tol:1e-9 "std floor applies" 1e-4 model.Anomaly.std.(0);
  close ~tol:1e-9 "std path 1" 0.1 model.Anomaly.std.(1)

let test_anomaly_detects_degradation () =
  let y = Matrix.of_arrays [| [| -0.1; -0.2 |]; [| -0.12; -0.22 |]; [| -0.11; -0.18 |] |] in
  let model = Anomaly.learn y in
  let anomalous = Anomaly.anomalous_paths model ~y_now:[| -0.5; -0.2 |] in
  Alcotest.(check (array bool)) "path 0 anomalous only" [| true; false |] anomalous;
  (* improvement is not an anomaly *)
  let better = Anomaly.anomalous_paths model ~y_now:[| -0.01; -0.2 |] in
  Alcotest.(check (array bool)) "improvement ignored" [| false; false |] better

let test_anomaly_localization () =
  (* both subtree paths degrade: the shared link is the suspect *)
  let model =
    Anomaly.learn
      (Matrix.of_arrays
         [| [| -0.01; -0.01; -0.01 |]; [| -0.012; -0.011; -0.012 |] |])
  in
  let _, links =
    Anomaly.detect model ~r:r_fig1 ~y_now:[| -0.011; -0.4; -0.42 |]
  in
  Alcotest.(check (array bool)) "shared link suspected"
    [| false; false; true; false; false |] links

let test_anomaly_end_to_end () =
  (* learn a quiet baseline, then congest one previously-quiet link *)
  let rng, r = tree_setup 91 in
  let config =
    { (Snapshot.default_config Lossmodel.Loss_model.internet) with
      Snapshot.congestion_prob = 0. }
  in
  let run = Simulator.run rng config r ~count:20 in
  let model = Anomaly.learn run.Simulator.y in
  (* craft an attacked snapshot: links all good except one *)
  let statuses = Array.make (Sparse.cols r) false in
  statuses.(Sparse.cols r / 2) <- true;
  let snap = Snapshot.generate rng config ~congested:statuses r in
  let anomalous, links = Anomaly.detect model ~r ~y_now:snap.Snapshot.y in
  let n_anom = Array.fold_left (fun a b -> if b then a + 1 else a) 0 anomalous in
  Alcotest.(check bool) "some paths anomalous" true (n_anom > 0);
  Alcotest.(check bool) "the congested link is a suspect" true
    links.(Sparse.cols r / 2)

(* A missing learning cell costs its path one sample, not the baseline:
   with one NaN in path 1's window, a target far below both baselines
   flags both paths. *)
let nan_window =
  [|
    [| -0.1; -0.2 |]; [| -0.12; Float.nan |]; [| -0.11; -0.18 |]; [| -0.09; -0.22 |];
  |]

let test_anomaly_skips_missing_cells () =
  let model = Anomaly.learn (Matrix.of_arrays nan_window) in
  close ~tol:1e-12 "mean over usable cells" (-0.2) model.Anomaly.mean.(1);
  Alcotest.(check (array bool)) "both paths flagged" [| true; true |]
    (Anomaly.anomalous_paths model ~y_now:[| -2.; -2. |])

let test_anomaly_monitor_missing_cell () =
  let m = Monitor.create ~r:(Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |]) ~window:4 in
  Array.iter
    (fun y ->
      match Monitor.observe_checked m y with
      | Monitor.Accepted | Monitor.Accepted_degraded _ -> ()
      | Monitor.Rejected _ -> Alcotest.fail "snapshot rejected")
    nan_window;
  Alcotest.(check (array bool)) "both paths flagged" [| true; true |]
    (Anomaly.anomalous_paths (Monitor.anomaly_model m) ~y_now:[| -2.; -2. |])

(* --- Monitor ------------------------------------------------------------------------ *)

let test_monitor_window () =
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |] in
  let m = Monitor.create ~r ~window:3 in
  Alcotest.(check bool) "not ready" false (Monitor.ready m);
  Monitor.observe m [| -0.1; -0.2 |];
  Monitor.observe m [| -0.1; -0.2 |];
  Monitor.observe m [| -0.1; -0.2 |];
  Alcotest.(check bool) "ready" true (Monitor.ready m);
  Monitor.observe m [| -0.3; -0.4 |];
  Alcotest.(check int) "window capped" 3 (Monitor.size m);
  let w = Monitor.window_matrix m in
  close ~tol:1e-9 "oldest evicted" (-0.1) (Matrix.get w 0 0);
  close ~tol:1e-9 "newest kept" (-0.3) (Matrix.get w 2 0)

let test_monitor_matches_batch_inference () =
  let rng, r = tree_setup 95 in
  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Simulator.run rng config r ~count:31 in
  let y_learn, target = Simulator.split_learning run ~learning:30 in
  let mon = Monitor.create ~r ~window:30 in
  for l = 0 to 29 do
    Monitor.observe mon (Matrix.row y_learn l)
  done;
  let streamed = Monitor.infer mon ~y_now:target.Snapshot.y in
  let batch = Core.Lia.infer ~r ~y_learn ~y_now:target.Snapshot.y () in
  Alcotest.(check bool) "same loss rates" true
    (Vector.approx_equal ~tol:1e-12 streamed.Core.Lia.loss_rates
       batch.Core.Lia.loss_rates)

let test_monitor_cache_invalidation () =
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |] in
  let m = Monitor.create ~r ~window:2 in
  Monitor.observe m [| -0.1; -0.2 |];
  Monitor.observe m [| -0.3; -0.1 |];
  let v1 = Monitor.variances m in
  Monitor.observe m [| -0.9; -0.1 |];
  let v2 = Monitor.variances m in
  Alcotest.(check bool) "variances refreshed" false
    (Vector.approx_equal ~tol:1e-12 v1 v2)

(* the monitor builds one plan per window: later snapshots only solve *)
let test_monitor_reuses_plan () =
  let rng, r = tree_setup 95 in
  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Simulator.run rng config r ~count:34 in
  let mon = Monitor.create ~r ~window:30 in
  for l = 0 to 29 do
    Monitor.observe mon (Matrix.row run.Simulator.y l)
  done;
  let builds = Obs.Metrics.histogram Obs.Metrics.default "plan_build_seconds" in
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Metrics.enable Obs.Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.disable Obs.Metrics.default;
      Obs.Metrics.reset Obs.Metrics.default)
    (fun () ->
      for l = 30 to 32 do
        ignore (Monitor.infer mon ~y_now:(Matrix.row run.Simulator.y l))
      done;
      Alcotest.(check int) "one build for three snapshots" 1
        (Obs.Metrics.histogram_count builds);
      Monitor.observe mon (Matrix.row run.Simulator.y 33);
      ignore (Monitor.infer mon ~y_now:(Matrix.row run.Simulator.y 33));
      Alcotest.(check int) "a new window builds again" 2
        (Obs.Metrics.histogram_count builds))

let test_monitor_errors () =
  let r = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |] |] in
  Alcotest.check_raises "window too small"
    (Invalid_argument "Monitor.create: window < 2") (fun () ->
      ignore (Monitor.create ~r ~window:1));
  let m = Monitor.create ~r ~window:2 in
  Alcotest.check_raises "wrong width"
    (Invalid_argument "Monitor.observe: measurement length mismatch") (fun () ->
      Monitor.observe m [| 1. |])

(* --- Properties ------------------------------------------------------------------------ *)

let prop_mils_segments_partition =
  QCheck.Test.make ~count:20 ~name:"MILS segments partition each path"
    QCheck.(int_range 10 60)
    (fun n ->
      let rng = Rng.create (n * 23) in
      let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:4 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let t = Mils.prepare r in
      let segs = Mils.decompose t in
      Array.for_all
        (fun i ->
          let row = Sparse.row r i in
          let flat = Array.concat (segs.(i)) in
          flat = row)
        (Array.init (Sparse.rows r) (fun i -> i)))

let prop_clink_probabilities_in_range =
  QCheck.Test.make ~count:50 ~name:"CLINK probabilities stay in (0,1)"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 10) (float_range 0. 1.))
    (fun fractions ->
      let np = List.length fractions in
      let r = Sparse.create ~cols:np (Array.init np (fun i -> [| i |])) in
      let model = Clink.learn ~r ~good_fraction:(Array.of_list fractions) in
      Array.for_all (fun p -> p > 0. && p < 1.) model.Clink.congestion_prob)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_mils_segments_partition; prop_clink_probabilities_in_range ]

let () =
  Alcotest.run "extensions"
    [
      ( "clink",
        [
          Alcotest.test_case "learn probabilities" `Quick test_clink_learn_probabilities;
          Alcotest.test_case "prior breaks ties" `Quick test_clink_prior_breaks_ties;
          Alcotest.test_case "good paths exonerate" `Quick test_clink_good_paths_exonerate;
          Alcotest.test_case "good fractions" `Quick test_clink_good_fractions;
          Alcotest.test_case "good fractions skip missing cells" `Quick
            test_clink_good_fractions_skip_missing;
          Alcotest.test_case "history helps vs SCFS" `Slow
            test_clink_beats_scfs_with_history;
        ] );
      ( "mils",
        [
          Alcotest.test_case "rows identifiable" `Quick test_mils_identifiable_rows;
          Alcotest.test_case "single links not identifiable" `Quick
            test_mils_single_links_not_identifiable;
          Alcotest.test_case "figure 1 decomposition" `Quick test_mils_decompose_fig1;
          Alcotest.test_case "finer with more beacons" `Quick
            test_mils_finer_with_more_beacons;
          Alcotest.test_case "rates exact on identifiable" `Quick
            test_mils_rates_exact_on_identifiable;
          Alcotest.test_case "average length" `Quick test_mils_average_length;
        ] );
      ( "delay",
        [
          Alcotest.test_case "snapshot additive" `Quick test_delay_snapshot_additive;
          Alcotest.test_case "queueing ranges" `Quick test_delay_queueing_ranges;
          Alcotest.test_case "baselines" `Quick test_delay_baselines;
          Alcotest.test_case "end to end" `Slow test_delay_lia_end_to_end;
        ] );
      ( "anomaly",
        [
          Alcotest.test_case "learn baseline" `Quick test_anomaly_learn_baseline;
          Alcotest.test_case "detects degradation" `Quick test_anomaly_detects_degradation;
          Alcotest.test_case "localization" `Quick test_anomaly_localization;
          Alcotest.test_case "end to end" `Slow test_anomaly_end_to_end;
          Alcotest.test_case "missing cells keep the baseline" `Quick
            test_anomaly_skips_missing_cells;
          Alcotest.test_case "monitor window with a missing cell" `Quick
            test_anomaly_monitor_missing_cell;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "window" `Quick test_monitor_window;
          Alcotest.test_case "matches batch" `Slow test_monitor_matches_batch_inference;
          Alcotest.test_case "cache invalidation" `Quick test_monitor_cache_invalidation;
          Alcotest.test_case "one plan per window" `Quick test_monitor_reuses_plan;
          Alcotest.test_case "errors" `Quick test_monitor_errors;
        ] );
      ("properties", properties);
    ]
