module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

type result = Plan.result = {
  variances : float array;
  transmission : float array;
  loss_rates : float array;
  kept : int array;
  removed : int array;
}

let m_checked =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Health-checked inferences served" "lia_checked_total"

let m_degraded =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Health-checked inferences served in degraded mode"
    "lia_degraded_total"

let m_refused =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Health-checked inferences refused" "lia_refused_total"

type solver =
  | Dense
  | Cgls of {
      tol : float;
      max_iter : int option;
      sample : (float * int) option;
      precond : Variance_estimator.precond_spec;
    }

let default_cgls =
  Cgls
    {
      tol = 1e-10;
      max_iter = None;
      sample = None;
      precond = Variance_estimator.Pc_jacobi;
    }

(* the effective-sample-size guard: a path pair needs this many
   overlapping snapshots to enter Phase 1 *)
let min_pair_samples = 2

let learn ?jobs ~solver ~r ~y () =
  match solver with
  | Dense ->
      Variance_estimator.estimate_streaming_ess ?jobs ~min_pair_samples ~r ~y ()
  | Cgls { tol; max_iter; sample; precond } ->
      let options =
        {
          Variance_estimator.default_matfree_options with
          Variance_estimator.tol;
          max_iter;
          sample;
          mf_precond = precond;
          mf_min_pair_samples = min_pair_samples;
        }
      in
      let v, ess, _ =
        Variance_estimator.estimate_matfree_ess ~options ?jobs ~r ~y ()
      in
      (v, ess)

let plan_backend = function
  | Dense -> Plan.Dense_qr
  | Cgls { tol; max_iter; precond; _ } ->
      (* phase 2 historically ran raw CGLS; only the hierarchical block
         preconditioner carries over to it (Jacobi would change the bits
         of every existing cgls run for no structural gain on the small
         reduced system) *)
      let precond =
        match precond with
        | Variance_estimator.Pc_block_jacobi _ -> precond
        | Variance_estimator.Pc_none | Variance_estimator.Pc_jacobi ->
            Variance_estimator.Pc_none
      in
      Plan.Cgls { tol; max_iter; precond }

let infer ?(solver = Dense) ?jobs ~r ~y_learn ~y_now () =
  if Matrix.cols y_learn <> Sparse.rows r then
    invalid_arg "Lia: learning matrix width mismatch";
  Obs.Event.span
    ~fields:
      [
        ("paths", Obs.Field.Int (Sparse.rows r));
        ("links", Obs.Field.Int (Sparse.cols r));
        ("m", Obs.Field.Int (Matrix.rows y_learn));
      ]
    "lia.infer"
  @@ fun () ->
  let variances, _ = learn ?jobs ~solver ~r ~y:y_learn () in
  Plan.solve
    (Plan.make ?jobs ~backend:(plan_backend solver) ~r ~variances ())
    y_now

let congested result ~threshold =
  Array.map (fun l -> l > threshold) result.loss_rates

(* --- health-checked inference (graceful degradation) ------------------- *)

type degradation = {
  quarantine : Quarantine.report;
  ess : Variance_estimator.ess;
  target_missing : int;
  target_corrupt : int;
}

type health = Clean | Degraded of degradation | Refused of string

type checked = { health : health; result : result option }

let health_label = function
  | Clean -> "clean"
  | Degraded _ -> "degraded"
  | Refused _ -> "refused"

let health_summary = function
  | Clean -> "clean"
  | Degraded d ->
      let q = d.quarantine in
      Printf.sprintf
        "degraded (%s; pairs used %d/%d, min overlap %d; target: %d missing, \
         %d corrupt)"
        (if Quarantine.clean q then "clean: " ^ Quarantine.summary q
         else
           Printf.sprintf "%s; %d missing cells, %d corrupt cells"
             (Quarantine.summary q) q.Quarantine.missing_cells
             q.Quarantine.corrupt_cells)
        d.ess.Variance_estimator.pairs_used d.ess.Variance_estimator.pairs_total
        d.ess.Variance_estimator.samples_min d.target_missing d.target_corrupt
  | Refused reason -> Printf.sprintf "refused (%s)" reason

(* the refusal threshold of [infer_checked]: the fraction of the linked
   path pairs that may be skipped *)
let max_skipped_pair_fraction = 0.5

let infer_checked ?(solver = Dense) ?jobs ~r ~y_learn ~y_now () =
  if Matrix.cols y_learn <> Sparse.rows r then
    invalid_arg "Lia.infer_checked: learning matrix width mismatch";
  if Array.length y_now <> Sparse.rows r then
    invalid_arg "Lia.infer_checked: measurement length mismatch";
  Obs.Metrics.incr m_checked;
  Obs.Event.span
    ~fields:
      [
        ("paths", Obs.Field.Int (Sparse.rows r));
        ("links", Obs.Field.Int (Sparse.cols r));
        ("m", Obs.Field.Int (Matrix.rows y_learn));
      ]
    "lia.infer_checked"
  @@ fun () ->
  let finish health result =
    (match health with
    | Clean -> ()
    | Degraded _ -> Obs.Metrics.incr m_degraded
    | Refused _ -> Obs.Metrics.incr m_refused);
    Obs.Event.emit ~kind:"verdict" "lia.verdict"
      ~fields:
        [
          ("health", Obs.Field.Str (health_label health));
          ("summary", Obs.Field.Str (health_summary health));
        ];
    (* a refusal is terminal for this run: flush the recorder tail now so
       the dump survives even an abrupt exit-3 path *)
    (match health with
    | Refused _ -> Obs.Recorder.auto_dump Obs.Recorder.default ~reason:"refused"
    | Clean | Degraded _ -> ());
    { health; result }
  in
  let refuse fmt = Printf.ksprintf (fun s -> finish (Refused s) None) fmt in
  let scrubbed, q = Quarantine.scrub y_learn in
  if Matrix.rows scrubbed < 2 then
    refuse "%d usable learning snapshots after quarantine (need at least 2)"
      (Matrix.rows scrubbed)
  else begin
    (* Phase 2 solves Y = R* X* over the valid target paths only; the
       plan's rank reduction works in the full column space, so results
       scatter back to all links *)
    let r_target, y_target, tq = Quarantine.restrict_target r y_now in
    if Array.length tq.Quarantine.valid = 0 then
      refuse "target snapshot has no usable measurements"
    else begin
      match learn ?jobs ~solver ~r ~y:scrubbed () with
      | exception Failure msg -> refuse "variance estimation failed: %s" msg
      | variances, ess ->
          let open Variance_estimator in
          if
            ess.pairs_total > 0
            && float_of_int (ess.pairs_total - ess.pairs_used)
               > max_skipped_pair_fraction *. float_of_int ess.pairs_total
          then
            refuse
              "only %d/%d path pairs have %d overlapping snapshots \
               (allowed skip fraction %g)"
              ess.pairs_used ess.pairs_total min_pair_samples
              max_skipped_pair_fraction
          else begin
            let target_clean = Array.length tq.Quarantine.valid = Sparse.rows r in
            let backend = plan_backend solver in
            match
              Plan.solve
                (Plan.make ?jobs ~backend ~r:r_target ~variances ())
                y_target
            with
            | exception Failure msg -> refuse "phase-2 solve failed: %s" msg
            | result ->
                if
                  not
                    (Array.for_all Float.is_finite result.loss_rates
                    && Array.for_all Float.is_finite result.variances)
                then refuse "non-finite estimates survived the solve"
                else begin
                  let degraded =
                    (not (Quarantine.clean q))
                    || (not target_clean)
                    || ess.pairs_used < ess.pairs_total
                  in
                  if degraded then
                    finish
                      (Degraded
                         {
                           quarantine = q;
                           ess;
                           target_missing = tq.Quarantine.v_missing;
                           target_corrupt = tq.Quarantine.v_corrupt;
                         })
                      (Some result)
                  else finish Clean (Some result)
                end
          end
    end
  end
