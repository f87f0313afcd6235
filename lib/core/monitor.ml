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

(* the learnt variances over the current window, and the plan that
   serves them, built on the first [infer] *)
type t = {
  r : Sparse.t;
  window : int;
  buffer : Linalg.Vector.t Queue.t;
  mutable cached : (Linalg.Vector.t * Plan.t Lazy.t) option;
}

let create ~r ~window =
  if window < 2 then invalid_arg "Monitor.create: window < 2";
  { r; window; buffer = Queue.create (); cached = None }

(* [push] takes ownership of [y]; every path into the window goes
   through it, so eviction and cache invalidation can never get out of
   sync with ingest (a stale cached variance vector or plan after host
   churn would silently poison every subsequent inference). *)
let push t y =
  Obs.Metrics.incr m_observations;
  Queue.add y t.buffer;
  if Queue.length t.buffer > t.window then begin
    ignore (Queue.pop t.buffer);
    Obs.Metrics.incr m_evictions
  end;
  if Option.is_some t.cached then begin
    Obs.Metrics.incr m_invalidations;
    Obs.Event.emit ~kind:"instant" "monitor.invalidate"
  end;
  Obs.Metrics.set g_window_fill (float_of_int (Queue.length t.buffer));
  t.cached <- None

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

let observe_checked t y =
  if Array.length y <> Sparse.rows t.r then
    invalid_arg "Monitor.observe_checked: measurement length mismatch";
  let scrubbed, rep = Quarantine.scrub_vector y in
  match Quarantine.unusable_row rep with
  | Some reason ->
      Obs.Metrics.incr m_quarantined;
      Rejected reason
  | None ->
      push t scrubbed;
      if rep.Quarantine.v_missing + rep.Quarantine.v_corrupt = 0 then Accepted
      else
        Accepted_degraded
          { missing = rep.Quarantine.v_missing; corrupt = rep.Quarantine.v_corrupt }

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

let learnt t =
  match t.cached with
  | Some c -> c
  | None ->
      if size t < 2 then failwith "Monitor.variances: fewer than 2 snapshots";
      Obs.Metrics.incr m_relearns;
      Obs.Event.span ~fields:[ ("window", Obs.Field.Int (size t)) ]
        "monitor.relearn"
      @@ fun () ->
      let v = Variance_estimator.estimate ~r:t.r ~y:(window_matrix t) () in
      let c = (v, lazy (Plan.make ~r:t.r ~variances:v ())) in
      t.cached <- Some c;
      c

let variances t = fst (learnt t)

let infer t ~y_now = Plan.solve (Lazy.force (snd (learnt t))) y_now

let infer_checked t ~y_now =
  if size t < 2 then
    {
      Lia.health =
        Lia.Refused
          (Printf.sprintf "monitor window holds %d snapshots (need at least 2)"
             (size t));
      result = None;
    }
  else
    Lia.infer_checked ~r:t.r ~y_learn:(window_matrix t) ~y_now ()

let anomaly_model t = Anomaly.learn (window_matrix t)
