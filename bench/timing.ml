(* Section 6.4: running times, as Bechamel micro-benchmarks.

   Paper (Matlab, 2 GHz Pentium 4): solving the first-order system is
   milliseconds, solving (9) ~10x longer, the inference runs in under a
   second once A is known; computing A took up to an hour (they only do it
   once). Our OCaml pipeline is measured per phase below, including the
   method ablation (streaming normal equations vs dense QR). *)

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
  let r_star = Sparse.dense_cols r kept in
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
        (Staged.stage (fun () -> Linalg.Qr.solve r_star y_now));
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
        (Staged.stage (fun () ->
             Linalg.Cholesky.solve_vec
               (Linalg.Cholesky.factorize_regularized gram)
               rhs));
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
    "learn (s)" "phase2 (s)";
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
      let t_learn = Unix.gettimeofday () -. t0 in
      let t0 = Unix.gettimeofday () in
      ignore
        (Core.Lia.infer_with_variances ~r ~variances:v
           ~y_now:target.Netsim.Snapshot.y);
      let t_phase2 = Unix.gettimeofday () -. t0 in
      Exp_common.row "%-8d %-8d %-8d %-12.2f %-12.2f" hosts (Sparse.rows r)
        (Sparse.cols r) t_learn t_phase2)
    [ 10; 20; 30; 45 ];
  Exp_common.note
    "the 45-host overlay spans ~1400 routers; the whole inference stays in seconds"

(* --- multicore jobs sweep -> BENCH_timing.json ------------------------- *)

(* Wall-clock of the three parallel kernels for jobs in {1, 2, 4, 8} over
   growing PlanetLab-like overlays, written as machine-readable JSON so
   later PRs have a perf trajectory to compare against. The kernels are
   bit-for-bit jobs-invariant, so only time varies. *)

(* the bench shares lib/obs's clock, so wall-clock numbers here and
   histogram observations in the metrics registry come from one source *)
let time_best ~reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Obs.Clock.now_ns () in
    f ();
    best := Float.min !best (Obs.Clock.seconds_since t0)
  done;
  !best

let kernels ~r ~y_learn ~a =
  [
    ( "estimate_streaming",
      fun jobs ->
        ignore (Core.Variance_estimator.estimate ~jobs ~r ~y:y_learn ()) );
    ( "covariance_matrix",
      fun jobs -> ignore (Nstats.Descriptive.covariance_matrix ~jobs y_learn) );
    ("augmented_build", fun jobs -> ignore (Core.Augmented.build ~jobs r));
    ("gram_lower", fun jobs -> ignore (Sparse.gram_lower ~jobs a));
  ]

(* Factor-once serving path: one Plan.make + Plan.solve_batch over
   [plan_snapshots] measurement rows, against the same rows pushed one by
   one through the historical per-call pipeline (rank reduction + fresh
   QR each time). Also asserts the jobs-invariance contract on the
   batch's loss rates before recording anything. *)
let plan_stats ~jobs_list ~reps ~r ~variances ~ys =
  let m = Linalg.Matrix.rows ys in
  let t_build = time_best ~reps (fun () -> ignore (Core.Plan.make ~r ~variances ())) in
  let plan = Core.Plan.make ~r ~variances () in
  (* the timed batch runs with the metrics registry enabled and the
     per-snapshot figure is read back from its histogram, so the JSON and
     an operator's --metrics dump can never disagree about this number *)
  let reg = Obs.Metrics.default in
  let h_solve = Obs.Metrics.histogram reg "plan_solve_snapshot_seconds" in
  Obs.Metrics.reset reg;
  Obs.Metrics.enable reg;
  let t_batch = time_best ~reps (fun () -> ignore (Core.Plan.solve_batch plan ys)) in
  Obs.Metrics.disable reg;
  let solve_per_snapshot_s =
    Obs.Metrics.histogram_sum h_solve
    /. float_of_int (max 1 (Obs.Metrics.histogram_count h_solve))
  in
  Obs.Metrics.reset reg;
  let t_indep =
    time_best ~reps:1 (fun () ->
        for l = 0 to m - 1 do
          ignore
            (Core.Lia.infer_with_variances ~r ~variances
               ~y_now:(Linalg.Matrix.row ys l))
        done)
  in
  let reference = Core.Plan.solve_batch ~jobs:1 plan ys in
  List.iter
    (fun jobs ->
      let got = Core.Plan.solve_batch ~jobs plan ys in
      Array.iteri
        (fun l res ->
          let ok =
            Array.for_all2
              (fun a b -> Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
              reference.(l).Core.Plan.loss_rates res.Core.Plan.loss_rates
          in
          if not ok then
            failwith
              (Printf.sprintf
                 "plan: jobs=%d loss rates differ from jobs=1 on snapshot %d"
                 jobs l))
        got)
    jobs_list;
  (t_build, t_batch, t_indep, solve_per_snapshot_s)

(* Tentpole acceptance: probes compiled into the kernels must be ~free
   when the registry is disabled and cheap when fully enabled (metrics on,
   trace streaming to a sink). Measured on the sweep's largest overlay;
   target < 2% enabled-vs-disabled. *)
let obs_overhead ~reps ~r ~y_learn =
  let reg = Obs.Metrics.default in
  let kernel () =
    ignore (Core.Variance_estimator.estimate ~r ~y:y_learn ())
  in
  Obs.Metrics.disable reg;
  kernel ();
  let t_off = time_best ~reps kernel in
  Obs.Metrics.reset reg;
  Obs.Metrics.enable reg;
  Obs.Trace.set_sink Obs.Trace.default (Some (Obs.Sink.file Filename.null));
  (* one warm-up run per configuration so one-time costs (first span's
     formatting path, sink buffers) don't masquerade as per-call overhead *)
  kernel ();
  let t_on = time_best ~reps kernel in
  Obs.Trace.set_sink Obs.Trace.default None;
  Obs.Metrics.disable reg;
  Obs.Metrics.reset reg;
  (t_off, t_on)

(* Chaos acceptance: the checked pipeline (quarantine scrub, pairwise
   ESS guard, health verdict) must cost ~nothing over the unchecked
   Lia.infer on clean input — both run the same phase-1 kernel, so only
   the scrub and verdict assembly are extra. Measured on the sweep's
   largest overlay; target < 2%. *)
let chaos_overhead ~reps ~r ~y_learn ~y_now =
  let t_plain =
    time_best ~reps (fun () -> ignore (Core.Lia.infer ~r ~y_learn ~y_now ()))
  in
  let t_checked =
    time_best ~reps (fun () ->
        ignore (Core.Lia.infer_checked ~r ~y_learn ~y_now ()))
  in
  (t_plain, t_checked)

(* Observability-v2 acceptance: flight recorder + convergence stream +
   metrics all enabled at once must cost < 2% over all-off on the
   matrix-free estimator — the kernel whose inner CGLS loop fires the
   per-iteration probes. Measured on the sweep's largest overlay. *)
let obs2_overhead ~reps ~r ~y_learn =
  let reg = Obs.Metrics.default in
  let kernel () =
    ignore (Core.Variance_estimator.estimate_matfree_ess ~r ~y:y_learn ())
  in
  Obs.Metrics.disable reg;
  Obs.Recorder.disable Obs.Recorder.default;
  Obs.Convergence.set_sink Obs.Convergence.default None;
  kernel ();
  let t_off = time_best ~reps kernel in
  Obs.Metrics.reset reg;
  Obs.Metrics.enable reg;
  Obs.Recorder.reset Obs.Recorder.default;
  Obs.Recorder.enable Obs.Recorder.default;
  Obs.Convergence.set_sink Obs.Convergence.default
    (Some (Obs.Sink.file Filename.null));
  kernel ();
  let t_on = time_best ~reps kernel in
  Obs.Convergence.set_sink Obs.Convergence.default None;
  Obs.Recorder.disable Obs.Recorder.default;
  Obs.Recorder.reset Obs.Recorder.default;
  Obs.Metrics.disable reg;
  Obs.Metrics.reset reg;
  (t_off, t_on)

let sweep ?(extra_json = "") ~out ~jobs_list ~reps ~snapshots ~plan_snapshots
    ~hosts_list () =
  Exp_common.header "multicore jobs sweep (PlanetLab-like overlays)";
  Exp_common.note "host recommended domain count: %d"
    (Domain.recommended_domain_count ());
  let cpus = Exp_common.host_cpus () in
  let advisory = cpus <= 1 in
  if advisory then
    Exp_common.note
      "host has %d CPU: jobs-sweep speedups are advisory (they measure \
       scheduling overhead, not parallelism)"
      cpus;
  (* spawn every pool up front so domain startup never lands in a timing *)
  List.iter
    (fun jobs -> if jobs > 1 then ignore (Parallel.Pool.get ~jobs))
    jobs_list;
  let buf = Buffer.create 4096 in
  let obs_json = ref "" in
  let obs2_json = ref "" in
  let chaos_json = ref "" in
  Buffer.add_string buf "{\n";
  Printf.bprintf buf "  \"bench\": \"lia-parallel-kernels\",\n";
  Printf.bprintf buf
    "  \"generated\": \"dune exec bench/main.exe -- timing-sweep\",\n";
  Printf.bprintf buf "  \"host_recommended_domains\": %d,\n"
    (Domain.recommended_domain_count ());
  Printf.bprintf buf "  \"host_cpus\": %d,\n" cpus;
  Printf.bprintf buf "  \"jobs_speedups_advisory\": %b,\n" advisory;
  Printf.bprintf buf "  \"jobs_swept\": [%s],\n"
    (String.concat ", " (List.map string_of_int jobs_list));
  Printf.bprintf buf "  \"topologies\": [\n";
  List.iteri
    (fun ti hosts ->
      let rng = Nstats.Rng.create (7100 + hosts) in
      let tb = Topology.Overlay.planetlab_like rng ~hosts () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let config =
        Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
      in
      let run = Netsim.Simulator.run rng config r ~count:(snapshots + 1) in
      let y_learn, target =
        Netsim.Simulator.split_learning run ~learning:snapshots
      in
      let y_now = target.Netsim.Snapshot.y in
      let a = Core.Augmented.build r in
      Exp_common.subheader
        (Printf.sprintf "%d hosts: %d paths x %d links, m = %d" hosts
           (Sparse.rows r) (Sparse.cols r) snapshots);
      Exp_common.row "%-22s %-6s %-12s %-10s" "kernel" "jobs" "seconds"
        "speedup";
      if ti > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "    {\n      \"kind\": \"planetlab-like\",\n      \"hosts\": %d,\n\
        \      \"paths\": %d,\n      \"links\": %d,\n      \"snapshots\": %d,\n\
        \      \"kernels\": [\n"
        hosts (Sparse.rows r) (Sparse.cols r) snapshots;
      List.iteri
        (fun ki (name, kernel) ->
          let times =
            List.map (fun jobs -> (jobs, time_best ~reps (fun () -> kernel jobs))) jobs_list
          in
          let t1 =
            match List.assoc_opt 1 times with
            | Some t -> t
            | None -> snd (List.hd times)
          in
          if ki > 0 then Buffer.add_string buf ",\n";
          Printf.bprintf buf
            "        {\n          \"name\": %S,\n          \"runs\": [" name;
          List.iteri
            (fun ji (jobs, t) ->
              Exp_common.row "%-22s %-6d %-12.4f %-10.2f" name jobs t (t1 /. t);
              if ji > 0 then Buffer.add_string buf ", ";
              Printf.bprintf buf
                "{\"jobs\": %d, \"seconds\": %.6f, \"speedup_vs_jobs1\": \
                 %.3f, \"advisory\": %b}"
                jobs t (t1 /. t) advisory)
            times;
          Buffer.add_string buf "]\n        }")
        (kernels ~r ~y_learn ~a);
      Buffer.add_string buf "\n      ],\n";
      (* factor-once plan vs per-call Lia.infer_with_variances *)
      let variances = Core.Variance_estimator.estimate ~r ~y:y_learn () in
      let ys =
        (Netsim.Simulator.run (Nstats.Rng.create (7700 + hosts)) config r
           ~count:plan_snapshots)
          .Netsim.Simulator.y
      in
      let t_build, t_batch, t_indep, solve_s =
        plan_stats ~jobs_list ~reps ~r ~variances ~ys
      in
      let t_plan = t_build +. t_batch in
      let speedup = t_indep /. t_plan in
      Exp_common.row "%-22s %-6s %-12s %-10s" "plan (factor once)" "-"
        (Printf.sprintf "%.4f" t_plan)
        (Printf.sprintf "%.1fx" speedup);
      Exp_common.note
        "plan: build %.2f ms + %d solves at %.1f us each = %.2f ms; %d \
         per-call infers = %.2f ms (%.1fx, bit-identical outputs for jobs in \
         {%s})"
        (1e3 *. t_build) plan_snapshots (1e6 *. solve_s) (1e3 *. t_plan)
        plan_snapshots (1e3 *. t_indep) speedup
        (String.concat ", " (List.map string_of_int jobs_list));
      Printf.bprintf buf
        "      \"plan\": {\n\
        \        \"snapshots\": %d,\n\
        \        \"plan_build_ms\": %.4f,\n\
        \        \"solve_per_snapshot_us\": %.3f,\n\
        \        \"plan_total_ms\": %.4f,\n\
        \        \"independent_infer_ms\": %.4f,\n\
        \        \"amortized_speedup_vs_infer\": %.2f\n\
        \      }\n    }"
        plan_snapshots (1e3 *. t_build) (1e6 *. solve_s) (1e3 *. t_plan)
        (1e3 *. t_indep) speedup;
      (* instrumentation overhead, measured once on the largest overlay *)
      if ti = List.length hosts_list - 1 then begin
        let t_off, t_on = obs_overhead ~reps ~r ~y_learn in
        let pct = 100. *. (t_on -. t_off) /. t_off in
        Exp_common.note
          "obs overhead (estimate_streaming, %d hosts): disabled %.4f s, \
           enabled %.4f s (%+.2f%%, target < 2%%)"
          hosts t_off t_on pct;
        obs_json :=
          Printf.sprintf
            "  \"obs_overhead\": {\n\
            \    \"kernel\": \"estimate_streaming\",\n\
            \    \"hosts\": %d,\n\
            \    \"reps\": %d,\n\
            \    \"disabled_seconds\": %.6f,\n\
            \    \"enabled_seconds\": %.6f,\n\
            \    \"overhead_pct\": %.3f,\n\
            \    \"target_pct\": 2.0\n\
            \  },\n"
            hosts reps t_off t_on pct;
        (* observability-v2 overhead on the same overlay: recorder +
           convergence stream + metrics vs all-off, on the CGLS kernel *)
        let t2_off, t2_on = obs2_overhead ~reps ~r ~y_learn in
        let pct2 = 100. *. (t2_on -. t2_off) /. t2_off in
        Exp_common.note
          "obs2 overhead (estimate_matfree_ess, %d hosts): disabled %.4f s, \
           recorder+convergence+metrics %.4f s (%+.2f%%, target < 2%%)"
          hosts t2_off t2_on pct2;
        obs2_json :=
          Printf.sprintf
            "  \"obs2_overhead\": {\n\
            \    \"kernel\": \"estimate_matfree_ess\",\n\
            \    \"enabled\": \"recorder+convergence+metrics\",\n\
            \    \"hosts\": %d,\n\
            \    \"reps\": %d,\n\
            \    \"disabled_seconds\": %.6f,\n\
            \    \"enabled_seconds\": %.6f,\n\
            \    \"overhead_pct\": %.3f,\n\
            \    \"target_pct\": 2.0\n\
            \  },\n"
            hosts reps t2_off t2_on pct2;
        (* fault-tolerance overhead on the same overlay: checked vs
           unchecked end-to-end inference on clean input *)
        let t_plain, t_checked = chaos_overhead ~reps ~r ~y_learn ~y_now in
        let cpct = 100. *. (t_checked -. t_plain) /. t_plain in
        Exp_common.note
          "chaos overhead (infer_checked vs infer, %d hosts): plain %.4f s, \
           checked %.4f s (%+.2f%%, target < 2%%)"
          hosts t_plain t_checked cpct;
        chaos_json :=
          Printf.sprintf
            "  \"chaos_overhead\": {\n\
            \    \"kernel\": \"infer_checked_vs_infer\",\n\
            \    \"hosts\": %d,\n\
            \    \"reps\": %d,\n\
            \    \"infer_seconds\": %.6f,\n\
            \    \"infer_checked_seconds\": %.6f,\n\
            \    \"overhead_pct\": %.3f,\n\
            \    \"target_pct\": 2.0\n\
            \  },\n"
            hosts reps t_plain t_checked cpct
      end)
    hosts_list;
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf !obs_json;
  Buffer.add_string buf !obs2_json;
  Buffer.add_string buf !chaos_json;
  Buffer.add_string buf extra_json;
  Printf.bprintf buf "  \"solve_per_snapshot_source\": \"%s\"\n}\n"
    "plan_solve_snapshot_seconds histogram (metrics registry)";
  let oc = open_out out in
  Buffer.output_buffer oc buf;
  close_out oc;
  Exp_common.note "wrote %s" out

let run_sweep () =
  (* the solver and preconditioner crossovers run first so their JSON
     sections ride along in the same BENCH_timing.json *)
  let solver_json =
    Solver.crossover ~reps:3 ~snapshots:50 ~hosts_list:[ 8; 12; 16; 24; 32 ]
      ~dense_qr_max_paths:300 ~accept_hosts:46 ()
  in
  let precond_json =
    Solver.precond_crossover ~reps:3 ~snapshots:50 ~hosts_list:[ 16; 24; 40 ] ()
  in
  sweep
    ~extra_json:
      (Printf.sprintf
         "  \"solver_crossover\": %s,\n\
         \  \"precond_crossover\": %s,\n"
         solver_json precond_json)
    ~out:"BENCH_timing.json" ~jobs_list:[ 1; 2; 4; 8 ] ~reps:3 ~snapshots:50
    ~plan_snapshots:100 ~hosts_list:[ 12; 20; 32 ] ()

(* tiny sizes, wired into the [bench-smoke] dune alias (and through it into
   the default test tree) so the sweep and its JSON writer cannot rot *)
let run_smoke () =
  sweep ~out:"bench_smoke.json" ~jobs_list:[ 1; 2 ] ~reps:1 ~snapshots:8
    ~plan_snapshots:10 ~hosts_list:[ 6 ] ()

(* end-to-end telemetry smoke: run the pipeline on a small overlay with the
   registry enabled, the tracer writing to a scratch file, and the logger on
   a memory sink, then assert the expected probes actually fired. Wired into
   the [obs-smoke] dune alias so the probe inventory cannot silently rot. *)
let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let run_obs_smoke () =
  Exp_common.header "telemetry smoke (probes fire end to end)";
  let reg = Obs.Metrics.default in
  Obs.Metrics.reset reg;
  Obs.Metrics.enable reg;
  let trace_file = Filename.temp_file "obs_smoke" ".jsonl" in
  Obs.Trace.set_sink Obs.Trace.default (Some (Obs.Sink.file trace_file));
  let log_sink, log_lines = Obs.Sink.memory () in
  Obs.Logger.set_sink Obs.Logger.default (Some log_sink);
  Obs.Logger.set_level Obs.Logger.default (Some Obs.Logger.Info);
  let rng = Nstats.Rng.create 1207 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:8 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:21 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:20 in
  let variances = Core.Variance_estimator.estimate ~r ~y:y_learn () in
  let plan = Core.Plan.make ~r ~variances () in
  ignore (Core.Plan.solve plan target.Netsim.Snapshot.y);
  Obs.Logger.info Obs.Logger.default "obs smoke pipeline done"
    ~fields:[ ("hosts", Obs.Field.Int 8) ];
  Obs.Logger.set_level Obs.Logger.default None;
  Obs.Logger.set_sink Obs.Logger.default None;
  Obs.Trace.set_sink Obs.Trace.default None;
  Obs.Metrics.disable reg;
  let dump = Obs.Metrics.dump reg in
  let expect_metric name =
    let h = Obs.Metrics.histogram reg name in
    if Obs.Metrics.histogram_count h = 0 then
      failwith (Printf.sprintf "obs-smoke: no observations in %s" name);
    if not (contains ~needle:(name ^ "_count") dump) then
      failwith (Printf.sprintf "obs-smoke: %s missing from dump" name)
  in
  List.iter expect_metric
    [
      "lia_phase1_kernel_seconds";
      "plan_build_seconds";
      "plan_solve_snapshot_seconds";
    ];
  let pairs = Obs.Metrics.counter reg "lia_pairs_total" in
  if Obs.Metrics.counter_value pairs = 0 then
    failwith "obs-smoke: lia_pairs_total never incremented";
  let ic = open_in trace_file in
  let n_lines = ref 0 and first = ref "" in
  (try
     while true do
       let l = input_line ic in
       if !n_lines = 0 then first := l;
       incr n_lines
     done
   with End_of_file -> close_in ic);
  Sys.remove trace_file;
  if !first <> "[" then failwith "obs-smoke: trace does not open with [";
  if !n_lines < 4 then failwith "obs-smoke: too few trace events";
  if List.length (log_lines ()) < 1 then failwith "obs-smoke: no log lines";
  Obs.Metrics.reset reg;
  Exp_common.row "%-28s %s" "metric names in dump"
    (string_of_int (List.length (Obs.Metrics.names reg)));
  Exp_common.row "%-28s %d" "trace event lines" (!n_lines - 1);
  Exp_common.note "registry, tracer, and logger sinks all live; probes fired"

(* Observability-v2 smoke: the flight recorder, the convergence stream,
   and the report renderer exercised in-process on a starved matrix-free
   solve, asserting the per-iteration probes fire and the report page
   renders every section. Wired into the [obs2-smoke] dune alias. *)
let run_obs2_smoke () =
  Exp_common.header "observability-v2 smoke (recorder, convergence, report)";
  let reg = Obs.Metrics.default in
  let rcd = Obs.Recorder.default in
  Obs.Metrics.reset reg;
  Obs.Metrics.enable reg;
  Obs.Recorder.reset rcd;
  Obs.Recorder.enable rcd;
  let conv_sink, conv_lines = Obs.Sink.memory () in
  Obs.Convergence.set_sink Obs.Convergence.default (Some conv_sink);
  let rng = Nstats.Rng.create 2209 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:10 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:20 in
  let y_learn, _ = Netsim.Simulator.split_learning run ~learning:19 in
  let starved =
    {
      Core.Variance_estimator.default_matfree_options with
      Core.Variance_estimator.max_iter = Some 4;
    }
  in
  let _, _, st =
    Core.Variance_estimator.estimate_matfree_ess ~options:starved ~r
      ~y:y_learn ()
  in
  if st.Linalg.Conjugate_gradient.converged then
    failwith "obs2-smoke: expected the starved solve not to converge";
  Obs.Convergence.set_sink Obs.Convergence.default None;
  let metrics_dump = Obs.Metrics.dump reg in
  Obs.Metrics.disable reg;
  let events = Obs.Recorder.events rcd in
  let count kind =
    List.length (List.filter (fun e -> e.Obs.Recorder.kind = kind) events)
  in
  let iters = count "solver_iter" in
  if iters < 4 then
    failwith
      (Printf.sprintf "obs2-smoke: %d solver_iter events, expected >= 4" iters);
  if count "solver_done" < 1 then
    failwith "obs2-smoke: no solver_done event recorded";
  if count "span_end" < 1 then
    failwith "obs2-smoke: no span_end event recorded";
  let conv = conv_lines () in
  if List.length conv <> iters then
    failwith
      (Printf.sprintf
         "obs2-smoke: %d convergence lines but %d solver_iter events"
         (List.length conv) iters);
  List.iter
    (fun line ->
      match Obs.Json.of_string_opt line with
      | None -> failwith ("obs2-smoke: unparseable convergence line: " ^ line)
      | Some j -> (
          match Option.bind (Obs.Json.member "relres" j) Obs.Json.to_float_opt with
          | Some rr when rr >= 0. -> ()
          | _ -> failwith "obs2-smoke: convergence line without valid relres"))
    conv;
  let relres = Obs.Metrics.histogram reg "lia_cgls_relres" in
  if Obs.Metrics.histogram_count relres <> iters then
    failwith "obs2-smoke: lia_cgls_relres count does not match iterations";
  let dump_sink, dump_lines = Obs.Sink.memory () in
  Obs.Recorder.dump rcd ~reason:"smoke" dump_sink;
  Obs.Recorder.disable rcd;
  Obs.Recorder.reset rcd;
  Obs.Metrics.reset reg;
  let page =
    Obs.Report.render
      ~recorder:(String.concat "\n" (dump_lines ()))
      ~metrics:metrics_dump
      ~convergence:(String.concat "\n" conv)
      ()
  in
  List.iter
    (fun needle ->
      if not (contains ~needle page) then
        failwith (Printf.sprintf "obs2-smoke: report misses %S" needle))
    [ "Per-phase profile"; "Convergence"; "Residual tail"; "Health"; "NO" ];
  Exp_common.row "%-28s %d" "recorder events" (List.length events);
  Exp_common.row "%-28s %d" "solver iterations" iters;
  Exp_common.row "%-28s %d" "convergence lines" (List.length conv);
  Exp_common.note "recorder, convergence stream, and report all live"
