(* The duality of Section 4: Theorem 1 is the mirror image of Cao et
   al.'s traffic-matrix identifiability [8, 30]. Same augmented-matrix
   machinery, measurements and unknowns swapped:

     loss tomography:   measure end-to-end paths, infer link variances
     traffic matrices:  measure links, infer OD-flow variances (= means,
                        under Poisson traffic)

   This experiment runs the dual end-to-end: all-pairs Poisson flows on a
   small mesh, means recovered from link-load covariances alone, in a
   regime where average loads are provably insufficient. *)

module Sparse = Linalg.Sparse
module Tm = Core.Traffic_matrix

let run () =
  Exp_common.header "Duality: traffic-matrix estimation from link covariances";
  let rng = Nstats.Rng.create 1700 in
  let tb = Topology.Waxman.generate rng ~nodes:24 ~hosts:10 ~alpha:0.4 ~beta:0.3 () in
  let tm, od = Tm.of_testbed tb in
  let n_flows = Array.length od and n_links = Sparse.rows tm.Tm.routes in
  (* the first-moment rank, exactly: the links' rows into one basis *)
  let basis = Linalg.Exact_basis.create ~dim:n_flows in
  for l = 0 to n_links - 1 do
    ignore (Linalg.Exact_basis.try_add basis (Sparse.row tm.Tm.routes l))
  done;
  let rank = Linalg.Exact_basis.size basis in
  Exp_common.note "%d OD flows over %d links; first-moment rank %d < %d flows"
    n_flows n_links rank n_flows;
  Exp_common.note "second-moment system identifiable: %b" (Tm.identifiable tm);
  let means =
    Array.init n_flows (fun f -> 20. +. (15. *. float_of_int (f mod 7)))
  in
  List.iter
    (fun epochs ->
      let loads = Tm.simulate rng tm ~means ~count:epochs in
      let est = Tm.estimate_means tm ~loads in
      let rel =
        Array.mapi (fun f m -> Float.abs (est.(f) -. m) /. m) means
      in
      Exp_common.row "epochs %-6d | mean rel err %5.1f%%  p90 %5.1f%%" epochs
        (100. *. Nstats.Descriptive.mean rel)
        (100. *. Nstats.Descriptive.quantile rel 0.9))
    [ 200; 1000; 5000 ];
  Exp_common.note
    "flow means converge from covariances alone, mirroring Phase 1 of LIA"
