(* Ablations for the design choices called out in DESIGN.md:

   - simulation fidelity: shared packet-level chains (the S.1 physical
     picture) vs independent per-path chains vs flow-level binomial;
   - loss process: Gilbert bursts vs Bernoulli (the paper reports "the
     differences are insignificant" between the two);
   - phase-2 elimination: the paper's stop-at-first-dependency rule vs the
     greedy keep-all-independent variant. *)

module Snapshot = Netsim.Snapshot
module Metrics = Core.Metrics

let trial ~fidelity ~process seed =
  let rng = Nstats.Rng.create seed in
  let tb = Topology.Tree_gen.generate rng ~nodes:600 ~max_branching:8 () in
  let config_of c = { c with Snapshot.fidelity; process } in
  Exp_common.run_trial ~config_of ~seed:(seed + 1) ~m:50 tb

let summarize name trials =
  let locs = List.map Exp_common.location_of_trial trials in
  let abs = List.concat_map (fun t -> Array.to_list (Exp_common.absolute_errors t)) trials in
  let avg f = List.fold_left (fun a x -> a +. f x) 0. locs /. float_of_int (List.length locs) in
  Exp_common.row "%-28s %6.1f%% %6.1f%% %10.5f" name
    (Exp_common.pct (avg (fun l -> l.Metrics.dr)))
    (Exp_common.pct (avg (fun l -> l.Metrics.fpr)))
    (Nstats.Descriptive.median (Array.of_list abs))

let run () =
  Exp_common.header "Ablations";
  Exp_common.subheader "simulation fidelity and loss process (600-node trees)";
  Exp_common.row "%-28s %-7s %-7s %-10s" "configuration" "DR" "FPR" "abs med";
  let seeds = Array.to_list (Exp_common.seeds ~base:1100 3) in
  summarize "Gilbert, shared chains"
    (List.map (trial ~fidelity:Snapshot.Packet_level ~process:(Snapshot.Gilbert 0.35)) seeds);
  summarize "Gilbert, per-path chains"
    (List.map (trial ~fidelity:Snapshot.Packet_per_path ~process:(Snapshot.Gilbert 0.35)) seeds);
  summarize "Gilbert, flow-level"
    (List.map (trial ~fidelity:Snapshot.Flow_level ~process:(Snapshot.Gilbert 0.35)) seeds);
  summarize "Bernoulli, shared chains"
    (List.map (trial ~fidelity:Snapshot.Packet_level ~process:Snapshot.Bernoulli) seeds);
  (* LLRD2: congested rates span [0.002, 1]; the paper found "very little
     difference between the two models" *)
  let llrd2_trial seed =
    let rng = Nstats.Rng.create seed in
    let tb = Topology.Tree_gen.generate rng ~nodes:600 ~max_branching:8 () in
    let config_of c =
      { c with
        Snapshot.model =
          Lossmodel.Loss_model.custom ~name:"LLRD2-calibrated"
            ~good:(0., 0.0005) ~congested:(0.002, 1.) ~threshold:0.002 }
    in
    Exp_common.run_trial ~config_of ~seed:(seed + 1) ~m:50 tb
  in
  summarize "LLRD2, shared chains" (List.map llrd2_trial seeds);
  Exp_common.note
    "paper: Gilbert vs Bernoulli differences insignificant; shared chains";
  Exp_common.note
    "realize assumption S.1 while per-path chains add sampling noise";

  Exp_common.subheader "phase-2 elimination rule";
  Exp_common.row "%-28s %-7s %-7s %-6s" "rule" "DR" "FPR" "kept";
  let stats rule_name eliminate =
    let drs = ref [] and fprs = ref [] and kepts = ref [] in
    List.iter
      (fun seed ->
        let rng = Nstats.Rng.create seed in
        let tb = Topology.Tree_gen.generate rng ~nodes:600 ~max_branching:8 () in
        let t = Exp_common.run_trial ~seed:(seed + 1) ~m:50 tb in
        (* recompute phase 2 under the chosen rule *)
        let { Core.Rank_reduction.kept; _ } =
          eliminate t.Exp_common.r t.Exp_common.result.Core.Lia.variances
        in
        (* eq. (9) on the kept columns: the normal equations Plan solves *)
        let x =
          Linalg.Sparse.least_squares
            (Linalg.Sparse.select_cols t.Exp_common.r kept)
            t.Exp_common.target.Snapshot.y
        in
        let nc = Linalg.Sparse.cols t.Exp_common.r in
        let loss = Array.make nc 0. in
        Array.iteri (fun k j -> loss.(j) <- 1. -. Float.min 1. (exp x.(k))) kept;
        let inferred = Array.map (fun l -> l > 0.002) loss in
        let loc =
          Metrics.location ~actual:t.Exp_common.target.Snapshot.congested ~inferred
        in
        drs := loc.Metrics.dr :: !drs;
        fprs := loc.Metrics.fpr :: !fprs;
        kepts := float_of_int (Array.length kept) :: !kepts)
      seeds;
    let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
    Exp_common.row "%-28s %6.1f%% %6.1f%% %6.0f" rule_name
      (Exp_common.pct (avg !drs))
      (Exp_common.pct (avg !fprs))
      (avg !kepts)
  in
  stats "paper (largest suffix)" Core.Rank_reduction.eliminate;
  stats "greedy (all independent)" Core.Rank_reduction.eliminate_greedy;
  Exp_common.note "greedy keeps more columns and trades FPR for coverage"
