module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

let m_observations =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Snapshots pushed into monitor windows" "lia_monitor_observations_total"

let m_evictions =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Snapshots evicted from full monitor windows (window churn)"
    "lia_monitor_evictions_total"

let m_invalidations =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Cached variance vectors invalidated by new observations"
    "lia_monitor_cache_invalidations_total"

let m_relearns =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Variance re-estimations over the monitor window"
    "lia_monitor_variance_relearns_total"

let m_quarantined =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Snapshots rejected by monitor ingest validation"
    "lia_monitor_quarantined_total"

let g_window_fill =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Snapshots currently buffered by the most recent monitor"
    "lia_monitor_window_fill"

type t = {
  r : Sparse.t;
  window : int;
  buffer : Linalg.Vector.t Queue.t;
  mutable cached_variances : Linalg.Vector.t option;
}

let create ~r ~window =
  if window < 2 then invalid_arg "Monitor.create: window < 2";
  { r; window; buffer = Queue.create (); cached_variances = None }

(* [push] takes ownership of [y]; every path into the window goes
   through it, so eviction and cache invalidation can never get out of
   sync with ingest (a stale cached variance vector after host churn
   would silently poison every subsequent inference). *)
let push t y =
  Obs.Metrics.incr m_observations;
  Queue.add y t.buffer;
  if Queue.length t.buffer > t.window then begin
    ignore (Queue.pop t.buffer);
    Obs.Metrics.incr m_evictions
  end;
  if t.cached_variances <> None then begin
    Obs.Metrics.incr m_invalidations;
    Obs.Event.emit ~kind:"instant" "monitor.invalidate"
  end;
  Obs.Metrics.set g_window_fill (float_of_int (Queue.length t.buffer));
  t.cached_variances <- None

let observe t y =
  if Array.length y <> Sparse.rows t.r then
    invalid_arg "Monitor.observe: measurement length mismatch";
  push t (Array.copy y)

type observation =
  | Accepted
  | Accepted_degraded of { missing : int; corrupt : int }
  | Rejected of Quarantine.reason

let observation_to_string = function
  | Accepted -> "accepted"
  | Accepted_degraded { missing; corrupt } ->
      Printf.sprintf "accepted degraded (%d missing, %d corrupt)" missing
        corrupt
  | Rejected reason ->
      Printf.sprintf "rejected (%s)" (Quarantine.reason_to_string reason)

let observe_checked ?(max_missing_fraction = 0.5) t y =
  if Array.length y <> Sparse.rows t.r then
    invalid_arg "Monitor.observe_checked: measurement length mismatch";
  let scrubbed, rep = Quarantine.scrub_vector y in
  let np = Array.length y in
  let invalid = np - Array.length rep.Quarantine.valid in
  if invalid = np && np > 0 then begin
    Obs.Metrics.incr m_quarantined;
    Rejected Quarantine.All_missing
  end
  else if float_of_int invalid > max_missing_fraction *. float_of_int (max 1 np)
  then begin
    Obs.Metrics.incr m_quarantined;
    Rejected (Quarantine.Excess_missing { missing = invalid; total = np })
  end
  else begin
    push t scrubbed;
    if invalid = 0 then Accepted
    else
      Accepted_degraded
        { missing = rep.Quarantine.v_missing; corrupt = rep.Quarantine.v_corrupt }
  end

let size t = Queue.length t.buffer

let ready t = size t >= t.window

let window_matrix t =
  let n = size t in
  let rows = Array.make n [||] in
  let k = ref 0 in
  Queue.iter
    (fun y ->
      rows.(!k) <- y;
      incr k)
    t.buffer;
  Matrix.init n (Sparse.rows t.r) (fun l i -> rows.(l).(i))

let variances t =
  match t.cached_variances with
  | Some v -> v
  | None ->
      if size t < 2 then failwith "Monitor.variances: fewer than 2 snapshots";
      Obs.Metrics.incr m_relearns;
      Obs.Event.span ~fields:[ ("window", Obs.Field.Int (size t)) ]
        "monitor.relearn"
      @@ fun () ->
      let v = Variance_estimator.estimate ~r:t.r ~y:(window_matrix t) () in
      t.cached_variances <- Some v;
      v

let infer t ~y_now = Lia.infer_with_variances ~r:t.r ~variances:(variances t) ~y_now

let infer_checked ?min_pair_samples ?max_missing_fraction
    ?max_skipped_pair_fraction t ~y_now =
  if size t < 2 then
    {
      Lia.health =
        Lia.Refused
          (Printf.sprintf "monitor window holds %d snapshots (need at least 2)"
             (size t));
      result = None;
    }
  else
    Lia.infer_checked ?min_pair_samples ?max_missing_fraction
      ?max_skipped_pair_fraction ~r:t.r ~y_learn:(window_matrix t) ~y_now ()

let anomaly_model t = Anomaly.learn (window_matrix t)
