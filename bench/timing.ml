(* Section 6.4: running times, as Bechamel micro-benchmarks.

   Paper (Matlab, 2 GHz Pentium 4): solving the first-order system is
   milliseconds, solving (9) ~10x longer, the inference runs in under a
   second once A is known; computing A took up to an hour (they only do it
   once). Our OCaml pipeline is measured per phase below; both phases
   solve their normal equations by the ordered sparse Cholesky. *)

open Bechamel
open Toolkit

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

let make_inputs () =
  let rng = Nstats.Rng.create 4242 in
  let tb = Topology.Tree_gen.generate rng ~nodes:1000 ~min_branching:4 ~max_branching:10 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config = Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Netsim.Simulator.run rng config r ~count:51 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:50 in
  let variances = Core.Variance_estimator.estimate ~r ~y:y_learn () in
  (r, y_learn, target, variances)

let tests (r, y_learn, target, variances) =
  let y_now = target.Netsim.Snapshot.y in
  let kept = (Core.Rank_reduction.eliminate r variances).Core.Rank_reduction.kept in
  let r_star = Sparse.select_cols r kept in
  (* ablation inputs: the normal equations of the materialized A *)
  let a = Core.Augmented.build r in
  let gram = Sparse.gram_lower a in
  let rhs = Sparse.normal_rhs a (Core.Covariance.sigma_star y_learn) in
  Test.make_grouped ~name:"lia"
    [
      Test.make ~name:"build-A" (Staged.stage (fun () -> Core.Augmented.build r));
      Test.make ~name:"variances-streaming"
        (Staged.stage (fun () ->
             Core.Variance_estimator.estimate ~r ~y:y_learn ()));
      Test.make ~name:"rank-reduction"
        (Staged.stage (fun () -> Core.Rank_reduction.eliminate r variances));
      Test.make ~name:"solve-eq9"
        (Staged.stage (fun () -> Sparse.least_squares r_star y_now));
      Test.make ~name:"phase2-full"
        (Staged.stage (fun () ->
             Core.Lia.infer_with_variances ~r ~variances ~y_now));
      Test.make ~name:"plan-build"
        (Staged.stage (fun () -> Core.Plan.make ~r ~variances ()));
      Test.make ~name:"plan-solve"
        (Staged.stage
           (let plan = Core.Plan.make ~r ~variances () in
            fun () -> Core.Plan.solve plan y_now));
      Test.make ~name:"normal-solve-cholesky"
        (Staged.stage (fun () -> Linalg.Cholesky.solve_ordered gram rhs));
    ]

let run () =
  Exp_common.header "Section 6.4: running times (1000-node tree, m = 50)";
  let inputs = make_inputs () in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances (tests inputs) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) results [] |> List.sort compare in
  Exp_common.row "%-30s %-14s" "phase" "time/run";
  List.iter
    (fun name ->
      let t = Hashtbl.find results name in
      match Analyze.OLS.estimates t with
      | Some [ ns ] ->
          let human =
            if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
            else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
          in
          Exp_common.row "%-30s %-14s" name human
      | _ -> Exp_common.row "%-30s (no estimate)" name)
    names;
  Exp_common.note
    "paper: inference in under a second; A computed once (up to an hour in Matlab)";
  (* scalability sweep: the Section 6.4 claim that the moment system of
     networks with thousands of nodes solves in seconds *)
  Exp_common.subheader "scalability of the variance solve (PlanetLab-like)";
  Exp_common.row "%-8s %-8s %-8s %-12s %-12s" "hosts" "paths" "links"
    "learn (ms)" "phase2 (ms)";
  List.iter
    (fun hosts ->
      let rng = Nstats.Rng.create (9000 + hosts) in
      let tb = Topology.Overlay.planetlab_like rng ~hosts () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let config =
        Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
      in
      let run = Netsim.Simulator.run rng config r ~count:51 in
      let y_learn, target = Netsim.Simulator.split_learning run ~learning:50 in
      let t0 = Unix.gettimeofday () in
      let v = Core.Variance_estimator.estimate ~r ~y:y_learn () in
      let t_learn = (Unix.gettimeofday () -. t0) *. 1000. in
      let t0 = Unix.gettimeofday () in
      ignore
        (Core.Lia.infer_with_variances ~r ~variances:v
           ~y_now:target.Netsim.Snapshot.y);
      let t_phase2 = (Unix.gettimeofday () -. t0) *. 1000. in
      Exp_common.row "%-8d %-8d %-8d %-12.1f %-12.2f" hosts (Sparse.rows r)
        (Sparse.cols r) t_learn t_phase2)
    [ 10; 20; 30; 45 ];
  Exp_common.note
    "the 45-host overlay spans ~1400 routers; the whole inference stays well under a second"
