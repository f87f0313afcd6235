(* A day of measurements on a PlanetLab-like overlay — the Section 7
   experiment in miniature.

   Generates a synthetic research-network overlay, runs a long campaign
   with Markov congestion dynamics (episodes last about one snapshot, as
   the paper measured), learns variances over a sliding window, and
   reports the three analyses of Section 7.2: cross-validated consistency
   (eq. 11), inter- vs intra-AS location of congested links (Table 3),
   and congestion episode durations.

   Run with: dune exec examples/planetlab_day.exe *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator

let () =
  let rng = Nstats.Rng.create 7 in
  let hosts = 24 in
  Printf.printf "generating a PlanetLab-like overlay with %d hosts...\n" hosts;
  let tb = Topology.Overlay.planetlab_like rng ~hosts () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  Printf.printf "topology: %d paths, %d virtual links\n" (Sparse.rows r)
    (Sparse.cols r);

  (* a "day": 120 snapshots of 1000 probes; congestion persists weakly *)
  let config =
    { (Snapshot.default_config Lossmodel.Loss_model.llrd1) with
      Snapshot.congestion_prob = 0.08 }
  in
  let total = 120 and m = 50 in
  Printf.printf "simulating %d snapshots (S = %d probes each)...\n" total
    config.Snapshot.probes;
  let run =
    Simulator.run
      ~dynamics:(Simulator.Hetero { stay = 0.3; active = 0.5 })
      rng config r ~count:total
  in

  (* Learn variances once over the first m snapshots, then diagnose the
     remaining snapshots with them. *)
  let y_learn = Matrix.init m (Sparse.rows r) (fun l i -> Matrix.get run.Simulator.y l i) in
  let variances = Core.Variance_estimator.estimate ~r ~y:y_learn () in

  Printf.printf "\n-- cross-validation (eq. 11, epsilon = 0.005) --\n";
  let target = run.Simulator.snapshots.(m) in
  let report =
    Core.Validation.cross_validate rng ~r ~y_learn ~y_now:target.Snapshot.y
      ~epsilon:0.005
  in
  Printf.printf "consistent validation paths: %d / %d (%.1f%%)\n"
    report.Core.Validation.consistent report.Core.Validation.total
    (100. *. report.Core.Validation.fraction);

  (* Diagnose each post-learning snapshot through one plan. *)
  let plan = Core.Plan.make ~r ~variances () in
  let verdicts =
    Array.init (total - m) (fun t ->
        Core.Plan.solve plan run.Simulator.snapshots.(m + t).Snapshot.y)
  in

  Printf.printf "\n-- congested link location (Table 3 analogue) --\n";
  Printf.printf "%-8s %-10s %-10s\n" "tl" "inter-AS" "intra-AS";
  List.iter
    (fun tl ->
      let inter = ref 0 and intra = ref 0 in
      Array.iter
        (fun (res : Core.Lia.result) ->
          let rep =
            Core.As_location.classify ~graph:tb.Topology.Testbed.graph ~routing:red
              ~loss_rates:res.Core.Lia.loss_rates ~threshold:tl
          in
          inter := !inter + rep.Core.As_location.inter;
          intra := !intra + rep.Core.As_location.intra)
        verdicts;
      let tot = max 1 (!inter + !intra) in
      Printf.printf "%-8.3f %-10s %-10s\n" tl
        (Printf.sprintf "%.1f%%" (100. *. float_of_int !inter /. float_of_int tot))
        (Printf.sprintf "%.1f%%" (100. *. float_of_int !intra /. float_of_int tot)))
    [ 0.04; 0.02; 0.01 ];

  Printf.printf "\n-- congestion episode durations (Section 7.2.2) --\n";
  let series =
    Array.map (fun res -> Core.Lia.congested res ~threshold:0.01) verdicts
  in
  let runs = Core.Duration.runs series in
  Printf.printf "%d episodes observed over %d snapshots\n" (List.length runs)
    (Array.length series);
  List.iter
    (fun (len, frac) ->
      Printf.printf "  %3d snapshot%s: %5.1f%%\n" len
        (if len = 1 then " " else "s")
        (100. *. frac))
    (Core.Duration.distribution runs);

  (* sanity: compare inferred vs actual statuses averaged over the day *)
  let drs = ref [] and fprs = ref [] in
  Array.iteri
    (fun t res ->
      let snap = run.Simulator.snapshots.(m + t) in
      let loc =
        Core.Metrics.location ~actual:snap.Snapshot.congested
          ~inferred:(Core.Lia.congested res ~threshold:0.01)
      in
      drs := loc.Core.Metrics.dr :: !drs;
      fprs := loc.Core.Metrics.fpr :: !fprs)
    verdicts;
  let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  Printf.printf
    "\nday-average location accuracy at tl = 0.01 (the Section 7 threshold):\n\
     DR %.1f%%  FPR %.1f%%\n"
    (100. *. avg !drs) (100. *. avg !fprs)
