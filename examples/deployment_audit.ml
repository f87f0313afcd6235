(* Auditing a measurement deployment before trusting its inferences.

   Before running LIA in production you want to know: (1) do the measured
   paths satisfy the theorem's assumptions, (2) are the link variances
   actually identifiable from these paths, (3) what does a snapshot sweep
   cost in probes and time under the Section 7.1 rate limits, and (4) at
   the current number of snapshots, is the variance ranking that Phase 2
   cuts on statistically stable? This example runs all four checks.

   Run with: dune exec examples/deployment_audit.exe *)

module Sparse = Linalg.Sparse
module Snapshot = Netsim.Snapshot

let () =
  let rng = Nstats.Rng.create 2718 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:16 ~ases:8 ~routers_per_as:6 () in
  let graph = tb.Topology.Testbed.graph in

  Printf.printf "== 1. measurement assumptions ==\n";
  let paths =
    Topology.Routing.paths_between graph ~beacons:tb.Topology.Testbed.beacons
      ~destinations:tb.Topology.Testbed.destinations
  in
  (* the T.2 repair, walked once: the report reads what it removes, and
     the reduced system below is built from what it keeps *)
  let kept, removed = Topology.Flutter.remove_fluttering paths in
  List.iter
    (fun (label, ok) ->
      Printf.printf "  %-45s %s\n" label (if ok then "ok" else "VIOLATED"))
    (Core.Identifiability.assumptions_report graph paths ~removed);
  Printf.printf
    "  (an uncovered link only means some links are invisible to this\n\
    \   deployment; they are excluded by the alias reduction)\n";

  Printf.printf "\n== 2. identifiability of the reduced system ==\n";
  let red = Topology.Routing.reduce graph kept in
  let r = red.Topology.Routing.matrix in
  Printf.printf "  %d paths x %d virtual links\n" (Sparse.rows r) (Sparse.cols r);
  (match Core.Identifiability.check r with
  | Core.Identifiability.Identifiable ->
      Printf.printf "  variances identifiable: Theorem 1 premise holds\n"
  | Core.Identifiability.Dependent deps ->
      Printf.printf "  NOT identifiable; entangled links: %s\n"
        (String.concat ", " (List.map string_of_int deps)));

  Printf.printf "\n== 3. probing cost (Section 7.1 limits) ==\n";
  let schedule = Netsim.Schedule.build rng Netsim.Schedule.default_config red in
  Printf.printf "  %d paths in %d rounds; a full snapshot sweep takes %.0f s\n"
    (Array.length red.Topology.Routing.paths)
    (Array.length schedule.Netsim.Schedule.rounds)
    schedule.Netsim.Schedule.snapshot_seconds;
  let worst =
    List.fold_left (fun acc (_, bw) -> Float.max acc bw) 0.
      schedule.Netsim.Schedule.beacon_bandwidth
  in
  Printf.printf "  peak per-beacon bandwidth %.0f KB/s (cap %.0f KB/s)\n"
    (worst /. 1000.)
    (Netsim.Schedule.default_config.Netsim.Schedule.rate_limit_bytes_per_s /. 1000.);

  Printf.printf "\n== 4. stability of the variance ranking ==\n";
  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let m = 40 in
  let run = Netsim.Simulator.run rng config r ~count:m in
  let n_cong =
    Array.fold_left (fun a c -> if c then a + 1 else a) 0
      run.Netsim.Simulator.snapshots.(0).Snapshot.congested
  in
  let intervals =
    Core.Variance_ci.bootstrap ~replicates:60 rng ~r ~y:run.Netsim.Simulator.y
  in
  Printf.printf "  %d snapshots, %d truly congested links\n" m n_cong;
  Printf.printf "  top-%d variance ranking separated at 90%% confidence: %b\n"
    n_cong
    (Core.Variance_ci.stable_ranking intervals ~top:n_cong);
  (* show the boundary region of the ranking with intervals *)
  let order =
    Linalg.Vector.sort_indices ~descending:true
      (Array.map (fun iv -> iv.Core.Variance_ci.estimate) intervals)
  in
  Printf.printf "  %-6s %-6s %-12s %-12s %-12s\n" "rank" "link" "lo" "estimate" "hi";
  Array.iteri
    (fun rank k ->
      if rank >= max 0 (n_cong - 3) && rank < n_cong + 3 then begin
        let iv = intervals.(k) in
        Printf.printf "  %-6d %-6d %-12.3e %-12.3e %-12.3e%s\n" rank k
          iv.Core.Variance_ci.lo iv.Core.Variance_ci.estimate iv.Core.Variance_ci.hi
          (if rank = n_cong - 1 then "   <- cut should land below here" else "")
      end)
    order
