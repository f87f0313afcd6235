(* Quickstart: the paper's running example, end to end.

   Builds the Figure 1 tree (one beacon, three destinations), shows why
   average loss rates are NOT identifiable from end-to-end means (the
   paper's motivating Figure 1), shows that the augmented matrix of
   second moments IS full rank (Theorem 1), then simulates a measurement
   campaign and runs the LIA algorithm.

   Run with: dune exec examples/quickstart.exe *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Graph = Topology.Graph

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  section "The Figure 1 network";
  (* beacon 0 -> router 1 -> destination 2 (D1)
                router 1 -> router 3 -> destinations 4 (D2), 5 (D3) *)
  let nodes =
    Array.init 6 (fun i ->
        { Graph.id = i;
          kind = (if i = 0 || i = 2 || i = 4 || i = 5 then Graph.Host else Graph.Router);
          as_id = 0 })
  in
  let graph =
    Graph.create ~nodes ~edges:[| (0, 1); (1, 2); (1, 3); (3, 4); (3, 5) |]
  in
  let testbed =
    { Topology.Testbed.graph; beacons = [| 0 |]; destinations = [| 2; 4; 5 |] }
  in
  let red = Topology.Testbed.routing testbed in
  let r = red.Topology.Routing.matrix in
  Printf.printf "%d paths x %d links, routing matrix:\n" (Sparse.rows r)
    (Sparse.cols r);
  Format.printf "%a@." Matrix.pp (Sparse.to_dense r);

  section "First moments are not identifiable";
  (* The paper's two distinct link transmission-rate assignments that give
     identical end-to-end rates. *)
  let assignment_a = [| 0.9; 0.8; 0.9; 0.8; 0.8 |] in
  let assignment_b = [| 0.8; 0.9; 1.0; 0.81; 0.81 |] in
  let path_rates trans =
    Array.init (Sparse.rows r) (fun i ->
        Array.fold_left (fun acc j -> acc *. trans.(j)) 1. (Sparse.row r i))
  in
  let pa = path_rates assignment_a and pb = path_rates assignment_b in
  Printf.printf "assignment A -> path rates: %.3f %.3f %.3f\n" pa.(0) pa.(1) pa.(2);
  Printf.printf "assignment B -> path rates: %.3f %.3f %.3f\n" pb.(0) pb.(1) pb.(2);
  (* rank(R), exactly: the paths' rows into one basis *)
  let basis = Linalg.Exact_basis.create ~dim:(Sparse.cols r) in
  for i = 0 to Sparse.rows r - 1 do
    ignore (Linalg.Exact_basis.try_add basis (Sparse.row r i))
  done;
  Printf.printf "rank(R) = %d < %d links: means alone cannot tell A from B\n"
    (Linalg.Exact_basis.size basis) (Sparse.cols r);

  section "Second moments are identifiable (Theorem 1)";
  (* rank(A) is the link count less the columns Theorem 1's exact test
     finds dependent *)
  let dependent =
    match Core.Identifiability.check r with
    | Core.Identifiability.Identifiable -> 0
    | Core.Identifiability.Dependent js -> List.length js
  in
  Printf.printf "augmented matrix A: %d rows x %d cols, rank %d (full)\n"
    (Core.Augmented.row_count ~np:(Sparse.rows r))
    (Sparse.cols r)
    (Sparse.cols r - dependent);

  section "Simulate a campaign and run LIA";
  let rng = Nstats.Rng.create 2024 in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1 in
  (* force one congested link so the small example is interesting *)
  let congested = [| false; false; true; false; false |] in
  let snaps =
    Array.init 51 (fun _ -> Netsim.Snapshot.generate rng config ~congested r)
  in
  let y_learn =
    Matrix.init 50 (Sparse.rows r) (fun l i -> snaps.(l).Netsim.Snapshot.y.(i))
  in
  let target = snaps.(50) in
  let result = Core.Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  Printf.printf "%-6s %-12s %-12s %-12s %s\n" "link" "variance" "true loss"
    "inferred" "verdict";
  Array.iteri
    (fun k v ->
      Printf.printf "%-6d %-12.3e %-12.4f %-12.4f %s\n" k v
        target.Netsim.Snapshot.realized.(k)
        result.Core.Lia.loss_rates.(k)
        (if result.Core.Lia.loss_rates.(k) > 0.002 then "CONGESTED" else "ok"))
    result.Core.Lia.variances;
  let loc =
    Core.Metrics.location ~actual:congested
      ~inferred:(Core.Lia.congested result ~threshold:0.002)
  in
  Format.printf "location accuracy: %a@." Core.Metrics.pp_location loc
