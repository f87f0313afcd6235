(* Table 3 and Section 7.2.2: statistics of the congested links on the
   PlanetLab deployment — inter- vs intra-AS location for several
   congestion thresholds tl, and the duration of congestion episodes.

   Paper (Table 3):     tl     inter-AS  intra-AS
                        0.04   53.6%     46.4%
                        0.02   56.9%     43.1%
                        0.01   57.8%     42.2%
   Paper (Sec 7.2.2): 99% of congested links stay congested for a single
   5-minute snapshot, 1% for two. *)

module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator
module Matrix = Linalg.Matrix

let run () =
  Exp_common.header "Table 3: location of congested links + episode durations";
  let rng = Nstats.Rng.create 1001 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:30 ~ases:12 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Snapshot.default_config Lossmodel.Loss_model.internet in
  let m = 50 and post = 100 in
  let run =
    Simulator.run
      ~dynamics:(Simulator.Hetero { stay = 0.05; active = 0.4 })
      rng config r ~count:(m + post)
  in
  let y_learn =
    Matrix.init m (Linalg.Sparse.rows r) (fun l i -> Matrix.get run.Simulator.y l i)
  in
  let variances = Core.Variance_estimator.estimate ~r ~y:y_learn () in
  let plan = Core.Plan.make ~r ~variances () in
  let results =
    Array.init post (fun t ->
        Core.Plan.solve plan run.Simulator.snapshots.(m + t).Snapshot.y)
  in
  Exp_common.subheader "location of congested links (100 snapshots)";
  Exp_common.row "%-8s %-10s %-10s" "tl" "inter-AS" "intra-AS";
  List.iter
    (fun tl ->
      let inter = ref 0 and intra = ref 0 in
      Array.iter
        (fun (res : Core.Lia.result) ->
          let rep =
            Core.As_location.classify ~graph:tb.Topology.Testbed.graph
              ~routing:red ~loss_rates:res.Core.Lia.loss_rates ~threshold:tl
          in
          inter := !inter + rep.Core.As_location.inter;
          intra := !intra + rep.Core.As_location.intra)
        results;
      let tot = max 1 (!inter + !intra) in
      Exp_common.row "%-8.2f %9.1f%% %9.1f%%" tl
        (Exp_common.pct (float_of_int !inter /. float_of_int tot))
        (Exp_common.pct (float_of_int !intra /. float_of_int tot)))
    [ 0.04; 0.02; 0.01 ];
  Exp_common.note "paper: 53.6-57.8%% inter-AS, more inter- than intra-AS";

  Exp_common.subheader "congestion episode durations (Section 7.2.2, tl = 0.01)";
  let series =
    Array.map (fun res -> Core.Lia.congested res ~threshold:0.01) results
  in
  let runs = Core.Duration.runs series in
  List.iter
    (fun (len, frac) ->
      Exp_common.row "  %3d snapshot%s %5.1f%%" len
        (if len = 1 then ": " else "s:")
        (Exp_common.pct frac))
    (Core.Duration.distribution runs);
  Exp_common.note "paper: 99%% last one snapshot, 1%% two snapshots"
