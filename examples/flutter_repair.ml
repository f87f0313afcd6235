(* Dirty inputs: route fluttering and traceroute measurement errors.

   The identifiability theorem needs assumption T.2 (no path meets,
   diverges, and meets another path again) and a routing matrix, which in
   practice comes from error-prone traceroute measurements. This example
   (1) injects fluttering paths into a mesh and shows the detector
   removing them, exactly as the paper dropped 52 of 48151 PlanetLab
   paths, and (2) distorts the measured topology with anonymous routers
   and unresolved interface aliases, then shows that LIA inference on the
   distorted topology still cross-validates well (eq. 11) — the paper's
   Section 7 robustness claim.

   Run with: dune exec examples/flutter_repair.exe *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Routing = Topology.Routing
module Flutter = Topology.Flutter
module Path = Topology.Path
module Snapshot = Netsim.Snapshot

let () =
  let rng = Nstats.Rng.create 123 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:18 () in
  let g = tb.Topology.Testbed.graph in
  let paths =
    Routing.paths_between g ~beacons:tb.Topology.Testbed.beacons
      ~destinations:tb.Topology.Testbed.destinations
  in
  Printf.printf "clean shortest-path set: %d paths, fluttering pairs: %d\n"
    (Array.length paths)
    (List.length (Flutter.check paths));

  (* Inject flutters: for some paths, reroute one middle hop through an
     alternative neighbour when the mesh offers one (load-balancer style). *)
  let reroute (p : Path.t) =
    let n = Array.length p.Path.nodes in
    if n < 4 then None
    else begin
      let i = 1 + Nstats.Rng.int rng (n - 3) in
      let u = p.Path.nodes.(i) and w = p.Path.nodes.(i + 1) in
      let out = Topology.Graph.out_edges g in
      let rec detour k =
        if k = out.start.(u + 1) then None
        else begin
          let v = out.dst.(k) in
          if
            v <> w
            && Topology.Graph.find_edge g ~src:v ~dst:w <> None
            && not (Array.exists (fun x -> x = v) p.Path.nodes)
          then Some v
          else detour (k + 1)
        end
      in
      Option.map
        (fun v ->
          let nodes =
            Array.concat
              [ Array.sub p.Path.nodes 0 (i + 1); [| v |];
                Array.sub p.Path.nodes (i + 1) (n - i - 1) ]
          in
          Path.make ~graph:g ~nodes)
        (detour out.start.(u))
    end
  in
  let flutters =
    Array.to_list paths
    |> List.filteri (fun i _ -> i mod 17 = 0)
    |> List.filter_map reroute
  in
  let dirty = Array.append paths (Array.of_list flutters) in
  let offending = Flutter.check dirty in
  Printf.printf "after injecting %d load-balanced variants: %d offending pairs\n"
    (List.length flutters) (List.length offending);
  let kept, removed = Flutter.remove_fluttering dirty in
  Printf.printf "flutter removal kept %d paths, dropped %d (paper: 52/48151)\n"
    (Array.length kept) (Array.length removed);
  assert (Flutter.check kept = []);

  (* Part 2: measurement errors. Probes run on the TRUE topology, but the
     inference only sees the traceroute-measured one. *)
  Printf.printf "\n-- traceroute distortion --\n";
  let measured = Topology.Traceroute.measure rng g kept in
  Printf.printf "true nodes: %d, measured nodes: %d (anonymous/alias splits)\n"
    (Topology.Graph.node_count g)
    (Topology.Graph.node_count measured.Topology.Traceroute.graph);
  let red_true = Routing.reduce g kept in
  let red_meas =
    Routing.reduce measured.Topology.Traceroute.graph measured.Topology.Traceroute.paths
  in
  let r_true = red_true.Routing.matrix and r_meas = red_meas.Routing.matrix in
  Printf.printf "true links: %d, measured links: %d\n" (Sparse.cols r_true)
    (Sparse.cols r_meas);

  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1 in
  let m = 50 in
  let run = Netsim.Simulator.run rng config r_true ~count:(m + 1) in
  let y_learn = Matrix.init m (Sparse.rows r_true) (fun l i ->
      Matrix.get run.Netsim.Simulator.y l i) in
  let target = run.Netsim.Simulator.snapshots.(m) in

  (* inference against the measured topology, validation per eq. (11) *)
  let report =
    Core.Validation.cross_validate rng ~r:r_meas ~y_learn
      ~y_now:target.Snapshot.y ~epsilon:0.005
  in
  Printf.printf
    "cross-validation on the DISTORTED topology: %d/%d consistent (%.1f%%)\n"
    report.Core.Validation.consistent report.Core.Validation.total
    (100. *. report.Core.Validation.fraction);
  let clean =
    Core.Validation.cross_validate rng ~r:r_true ~y_learn ~y_now:target.Snapshot.y
      ~epsilon:0.005
  in
  Printf.printf "cross-validation on the TRUE topology:      %d/%d consistent (%.1f%%)\n"
    clean.Core.Validation.consistent clean.Core.Validation.total
    (100. *. clean.Core.Validation.fraction);
  Printf.printf
    "\nLIA stays usable despite topology measurement errors (Section 7.1).\n"
