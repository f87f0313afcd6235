(* netloss — command-line front end to the LIA tomography library.

   Typical session:
     lia_cli gen --kind planetlab --hosts 30 --seed 1 -o pl.tb
     lia_cli sim --testbed pl.tb --snapshots 51 --seed 2 -o pl.meas
     lia_cli infer --testbed pl.tb --measurements pl.meas
     lia_cli validate --testbed pl.tb --measurements pl.meas --epsilon 0.005 *)

open Cmdliner

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator

let routing_of_testbed tb = Topology.Testbed.routing tb

(* --- shared arguments ------------------------------------------------- *)

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let testbed_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "t"; "testbed" ] ~docv:"FILE" ~doc:"Testbed file (from $(b,gen)).")

let measurements_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "y"; "measurements" ] ~docv:"FILE"
        ~doc:"Measurement file (from $(b,sim)).")

(* Range checks of flag values, run before any file is opened. A float
   flag must be a number first, so nan and inf fail the same way
   everywhere. *)
let require_float flag ~range ok x =
  let fail what = failwith (Printf.sprintf "%s must be %s, got %g" flag what x) in
  if not (Float.is_finite x) then fail "a finite number"
  else if not (ok x) then fail range

let require_count flag n =
  if n < 0 then failwith (Printf.sprintf "%s must be at least 0, got %d" flag n)

(* Raised after the health verdict has been printed; mapped to exit 3 in
   [main] so refusals are distinguishable from data errors (exit 2). *)
exception Refusal

let fault_conv =
  let parse s =
    match Netsim.Faults.parse s with
    | Ok t -> Ok t
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf t -> Format.pp_print_string ppf (Netsim.Faults.to_string t))

let fault_spec_arg =
  Arg.(
    value
    & opt fault_conv Netsim.Faults.none
    & info [ "fault-spec" ] ~docv:"SPEC"
        ~doc:
          "Seeded deterministic fault injection, e.g. \
           $(b,seed=7,drop=0.1,miss=0.05,oor=0.01,churn=2@0.5). Clauses: \
           $(b,seed=N), $(b,drop=P), $(b,miss=P), $(b,nan=P), $(b,oor=P), \
           $(b,neg=P), $(b,dup=P), $(b,churn=K@F), $(b,route_shift=F), \
           $(b,none). Same spec, same input: bit-identical faults.")

let jobs_arg =
  Arg.(
    value
    & opt int (Parallel.Pool.default_jobs ())
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Domains for the covariance and normal-equation kernels (default: \
           the machine's recommended domain count, capped at 8). Results are \
           bit-for-bit identical for every value; $(b,--jobs 1) disables the \
           pool.")

(* --- solver selection --------------------------------------------------- *)

let solver_arg =
  let choices = [ ("dense", `Dense); ("cgls", `Cgls) ] in
  Arg.(
    value
    & opt (enum choices) `Dense
    & info [ "solver" ] ~docv:"S"
        ~doc:
          "Linear-algebra path: $(b,dense) (default) factors the normal \
           equations of both phases by sparse Cholesky (exact; the faster \
           path on every testbed measured, up to 2 070 paths), $(b,cgls) is \
           matrix-free iterative (memory stays near the non-zeros).")

let cgls_tol_arg =
  Arg.(
    value & opt float 1e-10
    & info [ "cgls-tol" ] ~docv:"TOL"
        ~doc:"CGLS relative tolerance on the normal-equations residual.")

let cgls_max_iter_arg =
  Arg.(
    value & opt int 0
    & info [ "cgls-max-iter" ] ~docv:"N"
        ~doc:"CGLS iteration cap; $(b,0) (default) means twice the unknowns.")

(* [--precond] is validated here rather than through a cmdliner enum so
   an unknown value reports through the standard data-error path (exit 2),
   like every other semantic failure *)
let precond_arg =
  Arg.(
    value & opt string "jacobi"
    & info [ "precond" ] ~docv:"P"
        ~doc:
          "CGLS preconditioner: $(b,none), $(b,jacobi) (default; column \
           equalization), or $(b,block-jacobi) (hierarchical: per-AS \
           Cholesky blocks of the Gram matrix, with AS-boundary links in a \
           border group; the AS-sharded solve path). Ignored by the dense \
           solver.")

let precond_spec_of ~precond ~graph ~red =
  let groups () =
    Topology.Partition.group_cols (Topology.Partition.by_as graph red)
  in
  match precond with
  | "none" -> Core.Variance_estimator.Pc_none
  | "jacobi" -> Core.Variance_estimator.Pc_jacobi
  | "block-jacobi" -> Core.Variance_estimator.Pc_block_jacobi (groups ())
  | other ->
      failwith
        (Printf.sprintf
           "unknown preconditioner %S (expected \"none\", \"jacobi\", or \
            \"block-jacobi\")"
           other)

let solver_of ~solver ~cgls_tol ~cgls_max_iter ~precond =
  match solver with
  | `Dense -> Core.Lia.Dense
  | `Cgls ->
      Core.Lia.Cgls
        {
          tol = cgls_tol;
          max_iter = (if cgls_max_iter <= 0 then None else Some cgls_max_iter);
          sample = None;
          precond;
        }

(* --- telemetry (lib/obs) ---------------------------------------------- *)

type obs_config = {
  trace : string option;
  metrics : string option;
  convergence : string option;
  recorder : string option;
  log_level : Obs.Logger.level option;
}

let obs_term =
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write Chrome trace-event JSONL (pool-worker, kernel, and \
             plan-solve spans) to $(i,FILE); load it in chrome://tracing or \
             ui.perfetto.dev. $(i,FILE) $(b,-) writes to stderr.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable the metrics registry and write a Prometheus-style text \
             dump (pool queue-wait, phase-1 kernel, and per-snapshot solve \
             histograms, plus counters and gauges) to $(i,FILE) on exit. \
             $(i,FILE) $(b,-) writes to stdout.")
  in
  let convergence =
    Arg.(
      value
      & opt (some string) None
      & info [ "convergence" ] ~docv:"FILE"
          ~doc:
            "Stream per-iteration solver convergence JSONL (solve id, \
             iteration, relative residual, phase/preconditioner context) \
             to $(i,FILE); feed it to $(b,report --convergence). \
             $(i,FILE) $(b,-) writes to stderr.")
  in
  let recorder =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-recorder" ] ~docv:"FILE"
          ~doc:
            "Enable the in-memory flight recorder (recent spans, solver \
             iterations, quarantine and health verdicts) and dump it to \
             $(i,FILE) as JSONL on non-convergence, refusal, and exit; \
             read it back with $(b,report --recorder).")
  in
  let log_level =
    let level_conv =
      let parse s =
        match Obs.Logger.level_of_string s with
        | Ok l -> Ok l
        | Error msg -> Error (`Msg msg)
      in
      let print ppf = function
        | None -> Format.pp_print_string ppf "off"
        | Some l -> Format.pp_print_string ppf (Obs.Logger.level_name l)
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt level_conv None
      & info [ "log-level" ] ~docv:"LVL"
          ~doc:
            "Structured-log verbosity on stderr: $(b,off) (default), \
             $(b,error), $(b,warn), $(b,info), or $(b,debug).")
  in
  Term.(
    const (fun trace metrics convergence recorder log_level ->
        { trace; metrics; convergence; recorder; log_level })
    $ trace $ metrics $ convergence $ recorder $ log_level)

(* "-" selects a standard stream instead of a file literally named "-":
   line-oriented streams (trace, convergence) go to stderr so they never
   interleave with result output on stdout; the metrics dump — written
   once, on exit — goes to stdout. *)
let line_sink path =
  if path = "-" then Obs.Sink.stderr_lines () else Obs.Sink.file path

(* Open every output before any work, so an unwritable path fails the
   same way for all four (exit 2, nothing computed); then install the
   sinks, run, and dump/close on the way out (also on failure, so a
   crashed serving run still leaves its telemetry). *)
let with_obs cfg f =
  let metrics =
    Option.map (fun path -> if path = "-" then stdout else open_out path)
      cfg.metrics
  in
  Option.iter (fun path -> if path <> "-" then close_out (open_out path))
    cfg.recorder;
  let trace = Option.map line_sink cfg.trace in
  let convergence = Option.map line_sink cfg.convergence in
  Obs.Logger.set_level Obs.Logger.default cfg.log_level;
  Obs.Trace.set_sink Obs.Trace.default trace;
  Obs.Convergence.set_sink Obs.Convergence.default convergence;
  Option.iter
    (fun path ->
      Obs.Recorder.enable Obs.Recorder.default;
      if path <> "-" then
        Obs.Recorder.set_dump_path Obs.Recorder.default (Some path))
    cfg.recorder;
  if metrics <> None then Obs.Metrics.enable Obs.Metrics.default;
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun oc ->
          output_string oc (Obs.Metrics.dump Obs.Metrics.default);
          if oc == stdout then flush oc else close_out oc;
          Obs.Metrics.disable Obs.Metrics.default)
        metrics;
      (* "-" has nowhere persistent for an exit dump: write it to stderr
         here instead of registering a dump path *)
      (match cfg.recorder with
      | Some "-" ->
          Obs.Recorder.dump Obs.Recorder.default ~reason:"exit"
            (Obs.Sink.stderr_lines ())
      | _ -> ());
      Obs.Convergence.set_sink Obs.Convergence.default None;
      Obs.Trace.set_sink Obs.Trace.default None)
    f

let model_conv =
  let parse s =
    match List.assoc_opt s Lossmodel.Loss_model.builtins with
    | Some m -> Ok m
    | None -> Error (`Msg (Printf.sprintf "unknown loss model %S" s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf m.Lossmodel.Loss_model.name)

let dynamics_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ "static" ] -> Ok Simulator.Static
    | [ "iid" ] -> Ok Simulator.Iid
    | [ "markov"; stay ] -> (
        try Ok (Simulator.Markov (float_of_string stay))
        with Failure _ -> Error (`Msg "markov:<stay> expects a float"))
    | [ "hetero"; rest ] -> (
        match String.split_on_char ',' rest with
        | [ stay; active ] -> (
            try
              Ok
                (Simulator.Hetero
                   { stay = float_of_string stay; active = float_of_string active })
            with Failure _ -> Error (`Msg "hetero:<stay>,<active> expects floats"))
        | _ -> Error (`Msg "hetero:<stay>,<active>"))
    | _ -> Error (`Msg (Printf.sprintf "unknown dynamics %S" s))
  in
  let print ppf = function
    | Simulator.Static -> Format.pp_print_string ppf "static"
    | Simulator.Iid -> Format.pp_print_string ppf "iid"
    | Simulator.Markov s -> Format.fprintf ppf "markov:%g" s
    | Simulator.Hetero { stay; active } -> Format.fprintf ppf "hetero:%g,%g" stay active
  in
  Arg.conv (parse, print)

(* --- gen ---------------------------------------------------------------- *)

let gen_cmd =
  let kind =
    Arg.(
      value
      & opt string "planetlab"
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Topology family: $(b,tree), $(b,waxman), $(b,ba), $(b,hier-td), \
             $(b,hier-bu), $(b,planetlab), $(b,dimes), $(b,transit-stub).")
  in
  let nodes =
    Arg.(value & opt int 1000 & info [ "nodes" ] ~docv:"N" ~doc:"Core size.")
  in
  let hosts =
    Arg.(value & opt int 30 & info [ "hosts" ] ~docv:"H" ~doc:"End-host count.")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output testbed file.")
  in
  let run kind nodes hosts seed output =
    let rng = Nstats.Rng.create seed in
    let tb =
      match kind with
      | "tree" -> Topology.Tree_gen.generate rng ~nodes ~max_branching:10 ()
      | "waxman" -> Topology.Waxman.generate rng ~nodes ~hosts ()
      | "ba" -> Topology.Barabasi_albert.generate rng ~nodes ~hosts
      | "hier-td" ->
          Topology.Hierarchical.generate rng ~flavour:Topology.Hierarchical.Top_down
            ~ases:(max 2 (nodes / 40)) ~routers_per_as:12 ~hosts
      | "hier-bu" ->
          Topology.Hierarchical.generate rng ~flavour:Topology.Hierarchical.Bottom_up
            ~ases:(max 2 (nodes / 40)) ~routers_per_as:12 ~hosts
      | "planetlab" -> Topology.Overlay.planetlab_like rng ~hosts ()
      | "transit-stub" -> Topology.Transit_stub.generate rng ~hosts ()
      | "dimes" -> Topology.Overlay.dimes_like rng ~hosts
      | other -> failwith (Printf.sprintf "unknown topology kind %S" other)
    in
    Topology.Serial.save output tb;
    let red = routing_of_testbed tb in
    Printf.printf "wrote %s: %s; %d paths x %d virtual links\n" output
      (Format.asprintf "%a" Topology.Testbed.pp tb)
      (Sparse.rows red.Topology.Routing.matrix)
      (Sparse.cols red.Topology.Routing.matrix)
  in
  let term = Term.(const run $ kind $ nodes $ hosts $ seed_arg $ output) in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a topology and write a testbed file.") term

(* --- sim ---------------------------------------------------------------- *)

let sim_cmd =
  let snapshots =
    Arg.(value & opt int 51 & info [ "snapshots" ] ~docv:"M" ~doc:"Snapshot count.")
  in
  let probes =
    Arg.(value & opt int 1000 & info [ "probes" ] ~docv:"S" ~doc:"Probes per snapshot.")
  in
  let congestion =
    Arg.(
      value & opt float 0.1
      & info [ "congestion" ] ~docv:"P" ~doc:"Congested-link probability p.")
  in
  let model =
    Arg.(
      value
      & opt model_conv Lossmodel.Loss_model.llrd1_calibrated
      & info [ "model" ] ~docv:"MODEL"
          ~doc:
            (Printf.sprintf "Loss model: %s."
               (String.concat ", "
                  (List.map
                     (fun (name, _) -> "$(b," ^ name ^ ")")
                     Lossmodel.Loss_model.builtins))))
  in
  let dynamics =
    Arg.(
      value
      & opt dynamics_conv Simulator.Static
      & info [ "dynamics" ] ~docv:"DYN"
          ~doc:
            "Congestion dynamics: $(b,static), $(b,iid), $(b,markov:STAY), \
             $(b,hetero:STAY,ACTIVE).")
  in
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output measurement file.")
  in
  let truth =
    Arg.(
      value
      & opt (some string) None
      & info [ "truth" ] ~docv:"FILE"
          ~doc:"Also write the final snapshot's true link loss rates.")
  in
  let run testbed snapshots probes congestion model dynamics fault_spec seed
      output truth =
    let tb = Topology.Serial.load testbed in
    let red = routing_of_testbed tb in
    let r = red.Topology.Routing.matrix in
    let rng = Nstats.Rng.create seed in
    let config =
      { (Snapshot.default_config model) with
        Snapshot.probes; congestion_prob = congestion }
    in
    let run_result = Simulator.run ~dynamics rng config r ~count:snapshots in
    let y, fault_schedule = Netsim.Faults.apply fault_spec run_result.Simulator.y in
    Netsim.Trace_io.save output y;
    Printf.printf "wrote %s: %d snapshots x %d paths\n" output (Matrix.rows y)
      (Sparse.rows r);
    if not (Netsim.Faults.is_none fault_spec) then
      Printf.printf "fault injection: %s\n" (Netsim.Faults.summary fault_schedule);
    Option.iter
      (fun path ->
        let last = run_result.Simulator.snapshots.(snapshots - 1) in
        let oc = open_out path in
        Array.iteri
          (fun k rate ->
            Printf.fprintf oc "%d %.8f %s\n" k rate
              (if last.Snapshot.congested.(k) then "congested" else "good"))
          last.Snapshot.realized;
        close_out oc;
        Printf.printf "wrote %s: true link states of the final snapshot\n" path)
      truth
  in
  let term =
    Term.(
      const run $ testbed_arg $ snapshots $ probes $ congestion $ model $ dynamics
      $ fault_spec_arg $ seed_arg $ output $ truth)
  in
  Cmd.v (Cmd.info "sim" ~doc:"Simulate a measurement campaign on a testbed.") term

(* --- infer --------------------------------------------------------------- *)

let infer_cmd =
  let threshold =
    Arg.(
      value & opt float 0.002
      & info [ "threshold" ] ~docv:"TL" ~doc:"Congestion threshold tl.")
  in
  let top =
    Arg.(
      value & opt int 20
      & info [ "top" ] ~docv:"K" ~doc:"Print only the K lossiest links.")
  in
  let snapshots_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "snapshots" ] ~docv:"FILE"
          ~doc:
            "Repeated-inference mode: learn variances from every snapshot of \
             $(b,--measurements), build one factor-once inference plan, and \
             solve each snapshot row of $(i,FILE) through it (one line per \
             snapshot instead of the full link table).")
  in
  let run testbed measurements snapshots fault_spec threshold top jobs solver
      cgls_tol cgls_max_iter precond obs_cfg =
    require_float "--threshold" ~range:"in (0, 1)"
      (fun x -> 0. < x && x < 1.)
      threshold;
    require_count "--top" top;
    if jobs < 1 then failwith "--jobs must be at least 1";
    with_obs obs_cfg @@ fun () ->
    let log = Obs.Logger.default in
    let tb = Topology.Serial.load testbed in
    let red = routing_of_testbed tb in
    let r = red.Topology.Routing.matrix in
    let precond =
      precond_spec_of ~precond ~graph:tb.Topology.Testbed.graph ~red
    in
    let solver = solver_of ~solver ~cgls_tol ~cgls_max_iter ~precond in
    Obs.Logger.info log "loaded testbed"
      ~fields:
        [
          ("file", Obs.Field.Str testbed);
          ("paths", Obs.Field.Int (Sparse.rows r));
          ("links", Obs.Field.Int (Sparse.cols r));
        ];
    match snapshots with
    | None ->
        (* The default diagnosis path is quarantine-aware: it loads
           permissively and reports a typed health verdict, so a file
           written by [sim --fault-spec] (or a ragged real-world
           collector) degrades gracefully instead of crashing or
           silently producing NaN loss rates. *)
        let y = Netsim.Trace_io.load ~strict:false measurements in
        if Matrix.cols y <> Sparse.rows r then
          failwith "measurement width does not match the testbed's path count";
        let y, fault_schedule = Netsim.Faults.apply fault_spec y in
        if not (Netsim.Faults.is_none fault_spec) then
          Printf.printf "fault injection: %s\n"
            (Netsim.Faults.summary fault_schedule);
        let m = Matrix.rows y - 1 in
        if m < 2 then
          failwith "need at least 3 snapshots (m >= 2 learning + 1 target)";
        let y_learn = Matrix.init m (Matrix.cols y) (fun l i -> Matrix.get y l i) in
        let y_now = Matrix.row y m in
        let checked = Core.Lia.infer_checked ~solver ~jobs ~r ~y_learn ~y_now () in
        (match checked.Core.Lia.result with
        | None ->
            Printf.printf "health: %s\n"
              (Core.Lia.health_summary checked.Core.Lia.health);
            raise Refusal
        | Some result ->
            Printf.printf "learned variances from %d snapshots\n" m;
            Printf.printf "health: %s\n"
              (Core.Lia.health_summary checked.Core.Lia.health);
            print_string
              (Core.Report.table
                 ~options:
                   { Core.Report.default_options with Core.Report.threshold; top }
                 ~graph:tb.Topology.Testbed.graph ~routing:red result))
    | Some file ->
        if not (Netsim.Faults.is_none fault_spec) then
          failwith "--fault-spec is not supported with --snapshots";
        let y = Netsim.Trace_io.load measurements in
        if Matrix.cols y <> Sparse.rows r then
          failwith "measurement width does not match the testbed's path count";
        if Matrix.rows y < 2 then
          failwith "need at least 2 learning snapshots to learn variances";
        let variances, _ = Core.Lia.learn ~jobs ~solver ~r ~y () in
        Obs.Logger.info log "learned variances"
          ~fields:[ ("snapshots", Obs.Field.Int (Matrix.rows y)) ];
        let plan =
          Core.Plan.make ~jobs ~backend:(Core.Lia.plan_backend solver) ~r
            ~variances ()
        in
        Obs.Logger.info log "built inference plan"
          ~fields:
            [
              ("rank", Obs.Field.Int (Core.Plan.rank plan));
              ("deleted", Obs.Field.Int (Sparse.cols r - Core.Plan.rank plan));
            ];
        let ys = Netsim.Trace_io.load file in
        if Matrix.cols ys <> Sparse.rows r then
          failwith "snapshot width does not match the testbed's path count";
        let results = Core.Plan.solve_batch ~jobs plan ys in
        Obs.Logger.info log "served snapshot batch"
          ~fields:[ ("snapshots", Obs.Field.Int (Array.length results)) ];
        Printf.printf "learned variances from %d snapshots\n" (Matrix.rows y);
        Printf.printf "plan: kept %d columns, eliminated %d; serving %d snapshots\n"
          (Core.Plan.rank plan)
          (Sparse.cols r - Core.Plan.rank plan)
          (Array.length results);
        Printf.printf "%-9s %-10s %-11s %s\n" "snapshot" "congested" "max loss"
          "lossiest link";
        Array.iteri
          (fun l res ->
            let congested = Core.Lia.congested res ~threshold in
            let count =
              Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 congested
            in
            let worst = Linalg.Vector.max_index res.Core.Lia.loss_rates in
            Printf.printf "%-9d %-10d %-11.5f %d\n" l count
              res.Core.Lia.loss_rates.(worst) worst)
          results
  in
  let term =
    Term.(
      const run $ testbed_arg $ measurements_arg $ snapshots_arg $ fault_spec_arg
      $ threshold $ top $ jobs_arg $ solver_arg $ cgls_tol_arg $ cgls_max_iter_arg
      $ precond_arg $ obs_term)
  in
  Cmd.v
    (Cmd.info "infer"
       ~doc:
         "Run LIA: learn variances on all but the last snapshot, infer link \
          loss rates on the last. With $(b,--snapshots), learn variances \
          once, then serve every snapshot of the file through a single \
          factor-once inference plan.")
    term

(* --- validate ------------------------------------------------------------- *)

let validate_cmd =
  let epsilon =
    Arg.(
      value & opt float 0.005
      & info [ "epsilon" ] ~docv:"EPS" ~doc:"Tolerance of eq. (11).")
  in
  let run testbed measurements epsilon seed =
    require_float "--epsilon" ~range:"at least 0" (fun x -> x >= 0.) epsilon;
    let tb = Topology.Serial.load testbed in
    let red = routing_of_testbed tb in
    let r = red.Topology.Routing.matrix in
    let y = Netsim.Trace_io.load measurements in
    let m = Matrix.rows y - 1 in
    if m < 2 then failwith "need at least 3 snapshots";
    let y_learn = Matrix.init m (Matrix.cols y) (fun l i -> Matrix.get y l i) in
    let y_now = Matrix.row y m in
    let rng = Nstats.Rng.create seed in
    let report =
      Core.Validation.cross_validate rng ~r ~y_learn ~y_now ~epsilon
    in
    Printf.printf "consistent validation paths: %d / %d (%.1f%%) at epsilon %g\n"
      report.Core.Validation.consistent report.Core.Validation.total
      (100. *. report.Core.Validation.fraction)
      epsilon
  in
  let term = Term.(const run $ testbed_arg $ measurements_arg $ epsilon $ seed_arg) in
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Cross-validate inferred rates on held-out paths (eq. 11).")
    term

(* --- check ---------------------------------------------------------------- *)

let check_cmd =
  let run testbed =
    let tb = Topology.Serial.load testbed in
    let graph = tb.Topology.Testbed.graph in
    (* route once and walk T.2 once: the report reads the raw paths and
       what the T.2 repair removes, the matrix is [Testbed.routing]'s,
       from the same kept paths *)
    let paths =
      Topology.Routing.paths_between graph ~beacons:tb.Topology.Testbed.beacons
        ~destinations:tb.Topology.Testbed.destinations
    in
    let kept, removed = Topology.Flutter.remove_fluttering paths in
    Printf.printf "assumptions on %d measured paths:\n" (Array.length paths);
    List.iter
      (fun (label, ok) ->
        Printf.printf "  %-45s %s\n" label (if ok then "ok" else "VIOLATED"))
      (Core.Identifiability.assumptions_report graph paths ~removed);
    let red = Topology.Routing.reduce graph kept in
    let r = red.Topology.Routing.matrix in
    Printf.printf "reduced routing matrix: %d paths x %d virtual links\n"
      (Sparse.rows r) (Sparse.cols r);
    (match Core.Identifiability.check r with
    | Core.Identifiability.Identifiable ->
        Printf.printf "link variances: IDENTIFIABLE (Theorem 1 premise holds)\n"
    | Core.Identifiability.Dependent deps ->
        Printf.printf "link variances NOT identifiable; entangled columns: %s\n"
          (String.concat ", " (List.map string_of_int deps)));
    let rng = Nstats.Rng.create 0 in
    let schedule = Netsim.Schedule.build rng Netsim.Schedule.default_config red in
    Printf.printf
      "probe schedule (40B/10ms trains, 100 KB/s cap): %d rounds, %.0f s per \
       snapshot sweep\n"
      (Array.length schedule.Netsim.Schedule.rounds)
      schedule.Netsim.Schedule.snapshot_seconds
  in
  let term = Term.(const run $ testbed_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Check a testbed's measurement assumptions, variance \
          identifiability, and probing cost.")
    term

(* --- report ---------------------------------------------------------------- *)

let report_cmd =
  let input name ~doc =
    Arg.(value & opt (some file) None & info [ name ] ~docv:"FILE" ~doc)
  in
  let recorder_arg =
    input "recorder"
      ~doc:"Flight-recorder JSONL dump written by $(b,--flight-recorder)."
  in
  let trace_arg =
    input "trace" ~doc:"Chrome trace-event JSONL written by $(b,--trace)."
  in
  let metrics_arg =
    input "metrics" ~doc:"Prometheus text dump written by $(b,--metrics)."
  in
  let convergence_arg =
    input "convergence"
      ~doc:"Per-iteration solver JSONL written by $(b,--convergence)."
  in
  let top_arg =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Show the N slowest individual spans.")
  in
  let tail_arg =
    Arg.(
      value & opt int 8
      & info [ "tail" ] ~docv:"N"
          ~doc:"Show the last N per-iteration residuals of the focus solve.")
  in
  let read path = In_channel.with_open_text path In_channel.input_all in
  let run recorder trace metrics convergence top tail =
    require_count "--top" top;
    require_count "--tail" tail;
    if recorder = None && trace = None && metrics = None && convergence = None
    then
      failwith
        "report needs at least one input (--recorder, --trace, --metrics, or \
         --convergence)";
    print_string
      (Obs.Report.render
         ?recorder:(Option.map read recorder)
         ?trace:(Option.map read trace)
         ?metrics:(Option.map read metrics)
         ?convergence:(Option.map read convergence)
         ~top ~tail ())
  in
  let term =
    Term.(
      const run $ recorder_arg $ trace_arg $ metrics_arg $ convergence_arg
      $ top_arg $ tail_arg)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render the telemetry of a previous run (flight-recorder dump, \
          trace, metrics, convergence stream) as one page: per-phase \
          wall/alloc profile, slowest spans, a per-solve convergence table \
          with the residual tail, and the health verdict with quarantine \
          counts.")
    term

(* --- crossval --------------------------------------------------------------- *)

let crossval_cmd =
  let grid_arg =
    Arg.(
      value & opt string ""
      & info [ "grid" ] ~docv:"GRID"
          ~doc:
            "Scenario grid: semicolon-separated axes with comma-separated \
             values, e.g. \
             $(b,family=tree,planetlab;size=15,30;model=llrd1;fault=none|drop=0.2,seed=7). \
             Fault alternatives are $(b,|)-separated (specs contain commas). \
             Omitted axes keep their defaults \
             ($(b,family=tree,planetlab;size=15;model=llrd1-calibrated;fault=none)).")
  in
  let seeds_arg =
    Arg.(
      value & opt string "1,2"
      & info [ "seeds" ] ~docv:"SEEDS"
          ~doc:
            "Comma-separated scenario seeds; every grid point runs once per \
             seed and the report aggregates across them. Same seeds, same \
             grid: byte-identical report.")
  in
  let estimators_arg =
    Arg.(
      value & opt string "all"
      & info [ "estimators" ] ~docv:"NAMES"
          ~doc:
            (Printf.sprintf
               "Comma-separated backend names from the registry (or \
                $(b,all)): %s."
               (String.concat ", "
                  (List.map (fun name -> "$(b," ^ name ^ ")")
                     Core.Estimator.names))))
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Also write one JSON object per (scenario, estimator) cell — \
             including the wall-time and allocation telemetry the text table \
             omits — to $(i,FILE).")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.01
      & info [ "threshold" ] ~docv:"TL"
          ~doc:
            "Lossy-link threshold for both ground truth and detection \
             scoring (the paper's 1%).")
  in
  let snapshots_arg =
    Arg.(
      value & opt int 40
      & info [ "snapshots" ] ~docv:"M"
          ~doc:"Campaign length per scenario, including the target snapshot.")
  in
  let probes_arg =
    Arg.(
      value & opt int 1000
      & info [ "probes" ] ~docv:"S" ~doc:"Probes per snapshot.")
  in
  let timing_arg =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Append mean wall-time and allocation columns to the table. Off \
             by default so the report stays byte-identical across reruns; \
             the $(b,--out) JSONL always carries both.")
  in
  let run grid seeds estimators out threshold snapshots probes timing jobs obs
      =
    with_obs obs (fun () ->
        let grid =
          match Core.Crossval.parse_grid grid with
          | Ok g -> g
          | Error msg -> failwith msg
        in
        let seeds =
          String.split_on_char ',' seeds
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
          |> List.map (fun s ->
                 match int_of_string_opt s with
                 | Some n -> n
                 | None -> failwith (Printf.sprintf "malformed seed %S" s))
        in
        if seeds = [] then failwith "no seeds given";
        let ests =
          if estimators = "all" then Core.Estimator.all
          else
            String.split_on_char ',' estimators
            |> List.map String.trim
            |> List.filter (fun s -> s <> "")
            |> List.map (fun name ->
                   match Core.Estimator.find name with
                   | Some e -> e
                   | None ->
                       failwith
                         (Printf.sprintf "unknown estimator %S (known: %s)"
                            name
                            (String.concat ", " Core.Estimator.names)))
        in
        if ests = [] then failwith "no estimators selected";
        let scenarios = Core.Crossval.scenarios grid ~seeds in
        let cells =
          Core.Crossval.run ~jobs ~threshold ~snapshots ~probes
            ~estimators:ests ~scenarios ()
        in
        print_string (Core.Crossval.render ~timing cells);
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Core.Crossval.to_jsonl cells);
            close_out oc;
            Printf.printf "wrote %s: %d cells\n" path (Array.length cells))
          out)
  in
  let term =
    Term.(
      const run $ grid_arg $ seeds_arg $ estimators_arg $ out_arg
      $ threshold_arg $ snapshots_arg $ probes_arg $ timing_arg $ jobs_arg
      $ obs_term)
  in
  Cmd.v
    (Cmd.info "crossval"
       ~doc:
         "Cross-validate every capable estimator backend on identical \
          simulated (and optionally fault-injected) scenarios and render a \
          Table-1-style comparison grid.")
    term

let main =
  let doc = "network loss tomography with second-order statistics (LIA)" in
  Cmd.group (Cmd.info "lia_cli" ~doc)
    [
      gen_cmd;
      sim_cmd;
      infer_cmd;
      validate_cmd;
      check_cmd;
      report_cmd;
      crossval_cmd;
    ]

let () =
  match Cmd.eval_value ~catch:false main with
  | Ok _ -> ()
  | Error _ -> exit 124
  | exception Refusal -> exit 3
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
      Printf.eprintf "lia_cli: %s\n" msg;
      exit 2
