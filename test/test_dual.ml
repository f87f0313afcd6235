(* Tests for the traffic-matrix dual (Vardi / Cao et al.) and the Poisson
   sampler it relies on. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Tm = Core.Traffic_matrix

let close ?(tol = 1e-6) msg expected got = Alcotest.(check (float tol)) msg expected got

(* --- Poisson sampler ------------------------------------------------------ *)

let test_poisson_moments () =
  let rng = Rng.create 1 in
  List.iter
    (fun lambda ->
      let xs =
        Array.init 30_000 (fun _ -> float_of_int (Rng.poisson rng lambda))
      in
      close ~tol:(0.05 *. (1. +. lambda)) "poisson mean" lambda
        (Nstats.Descriptive.mean xs);
      close ~tol:(0.15 *. (1. +. lambda)) "poisson variance = mean" lambda
        (Nstats.Descriptive.variance xs))
    [ 0.5; 4.; 50. ]

let test_poisson_edges () =
  let rng = Rng.create 2 in
  Alcotest.(check int) "lambda 0" 0 (Rng.poisson rng 0.);
  Alcotest.check_raises "negative" (Invalid_argument "Rng.poisson: negative rate")
    (fun () -> ignore (Rng.poisson rng (-1.)))

(* --- Traffic matrix -------------------------------------------------------- *)

(* Cao et al.'s easy case: every flow crosses a dedicated first link, so
   even single links identify flows. Routing: 2 flows, 3 links: flow 0 on
   links {0,2}, flow 1 on links {1,2}. *)
let simple_tm () =
  Tm.make ~routes:(Sparse.create ~cols:2 [| [| 0 |]; [| 1 |]; [| 0; 1 |] |])

let test_identifiable_simple () =
  Alcotest.(check bool) "simple dual identifiable" true
    (Tm.identifiable (simple_tm ()))

let test_estimate_recovers_poisson_means () =
  let tm = simple_tm () in
  let rng = Rng.create 7 in
  let means = [| 40.; 90. |] in
  let loads = Tm.simulate rng tm ~means ~count:3000 in
  let est = Tm.estimate_means tm ~loads in
  close ~tol:6. "flow 0 mean" 40. est.(0);
  close ~tol:12. "flow 1 mean" 90. est.(1)

let test_loads_are_sums () =
  let tm = simple_tm () in
  let rng = Rng.create 9 in
  let loads = Tm.simulate rng tm ~means:[| 10.; 20. |] ~count:50 in
  for epoch = 0 to 49 do
    close ~tol:1e-9 "shared link = sum of flows"
      (Matrix.get loads epoch 0 +. Matrix.get loads epoch 1)
      (Matrix.get loads epoch 2)
  done

let test_of_testbed_structure () =
  let rng = Rng.create 11 in
  let tb = Topology.Tree_gen.generate rng ~nodes:50 ~max_branching:4 () in
  let tm, od = Tm.of_testbed tb in
  Alcotest.(check int) "one flow per beacon-destination pair"
    (Array.length tb.Topology.Testbed.destinations)
    (Array.length od);
  Alcotest.(check int) "columns = flows" (Array.length od)
    (Sparse.cols tm.Tm.routes);
  (* every flow crosses at least one link, every link at least one flow *)
  Alcotest.(check bool) "no empty rows" true
    (Array.for_all
       (fun i -> Array.length (Sparse.row tm.Tm.routes i) > 0)
       (Array.init (Sparse.rows tm.Tm.routes) (fun i -> i)));
  let counts = Sparse.column_counts tm.Tm.routes in
  Alcotest.(check bool) "no empty columns" true (Array.for_all (fun c -> c > 0) counts)

let test_dual_on_tree_recovers_means () =
  (* the full duality demo: flows on a real tree, means recovered from
     link-load covariances alone *)
  let rng = Rng.create 13 in
  let tb = Topology.Tree_gen.generate rng ~nodes:40 ~max_branching:4 () in
  let tm, od = Tm.of_testbed tb in
  let n_flows = Array.length od in
  let means =
    Array.init n_flows (fun f -> 20. +. (10. *. float_of_int (f mod 5)))
  in
  let loads = Tm.simulate rng tm ~means ~count:4000 in
  let est = Tm.estimate_means tm ~loads in
  (* relative error within ~20% per flow on average *)
  let rel_err = ref 0. in
  Array.iteri
    (fun f m -> rel_err := !rel_err +. (Float.abs (est.(f) -. m) /. m))
    means;
  Alcotest.(check bool) "means recovered from second moments" true
    (!rel_err /. float_of_int n_flows < 0.2)

let test_first_moments_alone_insufficient () =
  (* the motivating regime of [8, 30]: all-pairs flows on a small mesh,
     so OD pairs far outnumber links and average loads cannot determine
     the means — yet the second-moment system can *)
  let rng = Rng.create 17 in
  let tb = Topology.Waxman.generate rng ~nodes:20 ~hosts:10 ~alpha:0.4 ~beta:0.3 () in
  let tm, od = Tm.of_testbed tb in
  let rank = Oracle.Qr.matrix_rank (Sparse.to_dense tm.Tm.routes) in
  Alcotest.(check bool) "rank below flow count" true (rank < Array.length od)

let () =
  Alcotest.run "dual"
    [
      ( "poisson",
        [
          Alcotest.test_case "moments" `Slow test_poisson_moments;
          Alcotest.test_case "edges" `Quick test_poisson_edges;
        ] );
      ( "traffic-matrix",
        [
          Alcotest.test_case "identifiable" `Quick test_identifiable_simple;
          Alcotest.test_case "recovers poisson means" `Slow
            test_estimate_recovers_poisson_means;
          Alcotest.test_case "loads are sums" `Quick test_loads_are_sums;
          Alcotest.test_case "of_testbed structure" `Quick test_of_testbed_structure;
          Alcotest.test_case "dual on tree" `Slow test_dual_on_tree_recovers_means;
          Alcotest.test_case "first moments insufficient" `Quick
            test_first_moments_alone_insufficient;
        ] );
    ]
