(* The measured program: the public calls [lia_cli infer] makes, in its
   order, with [~jobs:1], fed the serialized documents a workload
   generates. [diagnose] and [serve] are the timed steps;
   [diagnose_traced] makes the same computation through the calls
   [Lia.infer_checked] makes internally, each inside a span. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Lia = Core.Lia
module Plan = Core.Plan
module VE = Core.Variance_estimator

(* A span hook: [span name f] runs [f]; the traced run records it. *)
type tracer = { span : 'a. string -> (unit -> 'a) -> 'a }

let untraced = { span = (fun _ f -> f ()) }

type env = {
  graph : Topology.Graph.t;
  routing : Topology.Routing.reduced;
  r : Sparse.t;
  plan : Plan.t option;  (** the serving plan ([Serve] workloads) *)
}

(* [lia_cli infer]'s solver for [--solver dense|cgls] with default
   tolerance, iteration cap and preconditioner. *)
let solver (w : Workload.t) = if w.cgls then Lia.default_cgls else Lia.Dense

let setup ~t (w : Workload.t) ~testbed ~learn_doc =
  let tb = t.span "topology.of_string" (fun () -> Topology.Serial.of_string testbed) in
  let routing = t.span "topology.routing" (fun () -> Topology.Testbed.routing tb) in
  let r = routing.Topology.Routing.matrix in
  let plan =
    match w.mode with
    | Workload.Diagnose -> None
    | Workload.Serve ->
        (* the [--snapshots] path with the default dense solver *)
        let learn_doc = Option.get learn_doc in
        let y =
          t.span "trace_io.of_string" (fun () -> Netsim.Trace_io.of_string learn_doc)
        in
        if Matrix.cols y <> Sparse.rows r then
          failwith "measurement width does not match the testbed's path count";
        let variances =
          t.span "variance_estimator.estimate" (fun () ->
              VE.estimate ~jobs:1 ~r ~y ())
        in
        Some
          (t.span "plan.make" (fun () ->
               Plan.make ~jobs:1 ~backend:Plan.Dense_qr ~r ~variances ()))
  in
  { graph = tb.Topology.Testbed.graph; routing; r; plan }

let plan env =
  match env.plan with Some p -> p | None -> invalid_arg "no serving plan"

type outcome = {
  text : string;  (** what [lia_cli infer] prints for this input *)
  health : Lia.health;
  result : Lia.result;
}

(* --- rendering, as the CLI prints it ---------------------------------- *)

(* [lia_cli infer]'s defaults: [--threshold 0.002 --top 20] *)
let report_options =
  { Core.Report.default_options with threshold = Workload.threshold; top = 20 }

let render_diagnosis env ~m health result =
  Printf.sprintf "learned variances from %d snapshots\nhealth: %s\n%s" m
    (Lia.health_summary health)
    (Core.Report.table ~options:report_options ~graph:env.graph
       ~routing:env.routing result)

let serve_line ~index (result : Lia.result) =
  let count =
    Array.fold_left
      (fun acc c -> if c then acc + 1 else acc)
      0
      (Lia.congested result ~threshold:Workload.threshold)
  in
  let worst = Linalg.Vector.max_index result.Lia.loss_rates in
  Printf.sprintf "%-9d %-10d %-11.5f %d\n" index count
    result.Lia.loss_rates.(worst) worst

let serve_header env ~learned ~served =
  let p = plan env in
  Printf.sprintf
    "learned variances from %d snapshots\n\
     plan: kept %d columns, eliminated %d; serving %d snapshots\n\
     %-9s %-10s %-11s %s\n"
    learned (Plan.rank p)
    (Sparse.cols env.r - Plan.rank p)
    served "snapshot" "congested" "max loss" "lossiest link"

(* --- diagnose --------------------------------------------------------- *)

(* Parse the document and split the learning rows from the target, as
   [lia_cli infer] does (including its no-op fault pass). *)
let load ?(t = untraced) env doc =
  let y =
    t.span "trace_io.of_string" (fun () ->
        Netsim.Trace_io.of_string ~strict:false doc)
  in
  if Matrix.cols y <> Sparse.rows env.r then
    failwith "measurement width does not match the testbed's path count";
  let y, _ = Netsim.Faults.apply Netsim.Faults.none y in
  let m = Matrix.rows y - 1 in
  if m < 2 then failwith "need at least 3 snapshots (m >= 2 learning + 1 target)";
  (m, Matrix.init m (Matrix.cols y) (fun l i -> Matrix.get y l i), Matrix.row y m)

let diagnose w env doc =
  let m, y_learn, y_now = load env doc in
  let checked =
    Lia.infer_checked ~solver:(solver w) ~jobs:1 ~r:env.r ~y_learn ~y_now ()
  in
  match checked.Lia.result with
  | None -> failwith (Lia.health_summary checked.Lia.health)
  | Some result ->
      {
        text = render_diagnosis env ~m checked.Lia.health result;
        health = checked.Lia.health;
        result;
      }

(* Counts the traced run reads at the layer boundaries. *)
type counts = {
  rows_dropped : int;  (** learning rows quarantined *)
  cgls_iters : int;  (** Phase-1 CGLS iterations; 0 on the dense path *)
  pairs_used_frac : float;  (** used / total path pairs in Phase 1 *)
  rank : int;  (** columns the plan kept *)
  kept : int array;  (** which columns, in the plan's order *)
  plan_r : Sparse.t;  (** routing rows the plan was built on *)
  variances : Linalg.Vector.t;
}

(* [Lia.infer_checked]'s body, call for call: scrub, Phase 1 with the
   same options record, the refusal rules, [Sparse.select_rows] for a
   dirty target, [Plan.make] with the same backend mapping, then
   [Plan.solve]. The wrapper's own telemetry (three counters, one
   verdict event) is not repeated. *)
let diagnose_traced t w env doc =
  let m, y_learn, y_now = load ~t env doc in
  let refuse fmt = Printf.ksprintf failwith ("refused: " ^^ fmt) in
  let r = env.r in
  let scrubbed, q =
    t.span "quarantine.scrub" (fun () ->
        Core.Quarantine.scrub ~max_missing_fraction:0.5 y_learn)
  in
  if Matrix.rows scrubbed < 2 then refuse "too few usable learning snapshots";
  let y_target, tq =
    t.span "quarantine.scrub" (fun () -> Core.Quarantine.scrub_vector y_now)
  in
  if Array.length tq.Core.Quarantine.valid = 0 then refuse "empty target";
  let variances, ess, cgls_iters =
    t.span "variance_estimator.estimate" (fun () ->
        match solver w with
        | Lia.Dense ->
            let v, ess =
              VE.estimate_streaming_ess ~jobs:1 ~min_pair_samples:2 ~r
                ~y:scrubbed ()
            in
            (v, ess, 0)
        | Lia.Cgls { tol; max_iter; sample; precond } ->
            let options =
              {
                VE.default_matfree_options with
                VE.tol;
                max_iter;
                sample;
                mf_precond = precond;
                mf_min_pair_samples = 2;
              }
            in
            let v, ess, stats =
              VE.estimate_matfree_ess ~options ~jobs:1 ~r ~y:scrubbed ()
            in
            (v, ess, stats.Linalg.Conjugate_gradient.iterations))
  in
  if
    ess.VE.pairs_total > 0
    && float_of_int (ess.VE.pairs_total - ess.VE.pairs_used)
       > 0.5 *. float_of_int ess.VE.pairs_total
  then refuse "too many skipped path pairs";
  let target_clean = Array.length tq.Core.Quarantine.valid = Sparse.rows r in
  let plan_r, y_solve =
    if target_clean then (r, y_now)
    else
      t.span "sparse.select_rows" (fun () ->
          let rows = tq.Core.Quarantine.valid in
          (Sparse.select_rows r rows, Array.map (fun i -> y_target.(i)) rows))
  in
  let backend =
    match solver w with
    | Lia.Dense -> Plan.Dense_qr
    | Lia.Cgls { tol; max_iter; precond; _ } ->
        let precond =
          match precond with
          | VE.Pc_block_jacobi _ as p -> p
          | VE.Pc_none | VE.Pc_jacobi -> VE.Pc_none
        in
        Plan.Cgls { tol; max_iter; precond }
  in
  let plan =
    t.span "plan.make" (fun () -> Plan.make ~jobs:1 ~backend ~r:plan_r ~variances ())
  in
  let result = t.span "plan.solve" (fun () -> Plan.solve plan y_solve) in
  if
    not
      (Array.for_all Float.is_finite result.Lia.loss_rates
      && Array.for_all Float.is_finite result.Lia.variances)
  then refuse "non-finite estimates";
  let health =
    if
      (not (Core.Quarantine.clean q))
      || (not target_clean)
      || ess.VE.pairs_used < ess.VE.pairs_total
    then
      Lia.Degraded
        {
          Lia.quarantine = q;
          ess;
          target_missing = tq.Core.Quarantine.v_missing;
          target_corrupt = tq.Core.Quarantine.v_corrupt;
        }
    else Lia.Clean
  in
  let text = t.span "report.table" (fun () -> render_diagnosis env ~m health result) in
  let counts =
    {
      rows_dropped = List.length q.Core.Quarantine.quarantined;
      cgls_iters;
      pairs_used_frac =
        (if ess.VE.pairs_total = 0 then 1.
         else float_of_int ess.VE.pairs_used /. float_of_int ess.VE.pairs_total);
      rank = Plan.rank plan;
      kept = Plan.kept plan;
      plan_r;
      variances;
    }
  in
  ({ text; health; result }, counts)

(* --- serve ------------------------------------------------------------ *)

let serve ?(t = untraced) env ~index doc =
  let ys = t.span "trace_io.of_string" (fun () -> Netsim.Trace_io.of_string doc) in
  if Matrix.cols ys <> Sparse.rows env.r then
    failwith "snapshot width does not match the testbed's path count";
  let result = t.span "plan.solve" (fun () -> Plan.solve (plan env) (Matrix.row ys 0)) in
  let text = t.span "report.table" (fun () -> serve_line ~index result) in
  { text; health = Lia.Clean; result }

(* --- telemetry of the degraded workload ------------------------------- *)

(* [--metrics FILE --flight-recorder FILE --convergence FILE] in process:
   the sinks are switched on once, reset before each op as a fresh CLI
   process would start empty, and dumped to memory after it. *)
let telemetry_on () =
  Obs.Metrics.enable Obs.Metrics.default;
  Obs.Recorder.enable Obs.Recorder.default

let telemetry_reset () =
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Recorder.reset Obs.Recorder.default;
  let sink, _ = Obs.Sink.memory () in
  Obs.Convergence.set_sink Obs.Convergence.default (Some sink)

(* The exit dumps; returns the number of recorder events dumped. *)
let telemetry_dump () =
  ignore (Obs.Metrics.dump Obs.Metrics.default);
  let sink, lines = Obs.Sink.memory () in
  Obs.Recorder.dump Obs.Recorder.default ~reason:"exit" sink;
  Obs.Convergence.flush Obs.Convergence.default;
  List.length (lines ()) - 1
