(* The ledger's metrics: names, units, directions and regression bounds.
   [BENCHMARK.json] at the repository root records the same table;
   [ledger manifest] checks that the two agree. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the base median it may worsen by; 0 = ungated *)
}

let m ?(bound = 0.) name unit_ better = { name; unit_; better; bound }

(* Bounds cover what a correct, unchanged program does from seed to seed
   on a shared 2-vCPU host (see README.md): at the reference speed,
   timings still move by up to 14% from seed to seed, so they get 0.25,
   the widest bound allowed, which [setup_s] (whose spread is not even
   required to stay within it) shares. Allocation and accuracy are
   measured on the fixed reference inputs and repeat exactly whatever
   the seed and the host, so their bounds are as tight as the losses
   they must catch: 3% of allocation, 5% of absolute error, and 0.01 of
   detection rate and precision, which relative to a fraction is at most
   0.01 absolute. *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "latency_ms_p50" "ms" Lower ~bound:0.25;
    m "ops_per_s" "1/s" Higher ~bound:0.25;
    m "alloc_mwords_per_op" "Mwords" Lower ~bound:0.03;
    m "peak_heap_mb" "MB" Lower ~bound:0.10;
    m "detection_rate" "fraction" Higher ~bound:0.01;
    m "precision" "fraction" Higher ~bound:0.01;
    m "abs_err_congested" "loss" Lower ~bound:0.05;
  ]

let per_layer =
  [
    m "topology.of_string_ms" "ms" Lower;
    m "topology.routing_ms" "ms" Lower;
    m "trace_io.of_string_ms" "ms" Lower;
    m "quarantine.scrub_ms" "ms" Lower;
    m "quarantine.rows_dropped" "count" Lower;
    m "variance_estimator.estimate_ms" "ms" Lower;
    m "variance_estimator.estimate_mwords" "Mwords" Lower;
    m "variance_estimator.cgls_iters" "count" Lower;
    m "variance_estimator.pairs_used_frac" "fraction" Higher;
    m "rank_reduction.eliminate_ms" "ms" Lower;
    m "plan.make_ms" "ms" Lower;
    m "plan.make_mwords" "Mwords" Lower;
    m "plan.rank" "count" Higher;
    m "plan.solve_ms" "ms" Lower;
    m "plan.solve_kwords" "kwords" Lower;
    m "report.table_ms" "ms" Lower;
    m "obs.dump_ms" "ms" Lower;
    m "obs.recorder_events" "count" Lower;
    m "op.self_ms" "ms" Lower;
    m "op.child_coverage" "fraction" Higher;
    m "trace.overhead_pct" "%" Lower;
  ]

let find name = List.find_opt (fun x -> x.name = name) (end_to_end @ per_layer)

(* End-to-end values of one run, times at the reference host's speed
   ([Host]). [latency_ms_p50] is the median over the timed ops,
   [alloc_mwords_per_op] the median over the reference inputs;
   [ops_per_s] is timed ops over their summed time. *)
let values (r : Measure.result) =
  let secs = r.Measure.latencies and ref_ = r.Measure.reference in
  [
    ("setup_s", Stats.median r.Measure.setups);
    ("latency_ms_p50", Stats.median secs *. 1e3);
    ( "ops_per_s",
      float_of_int (List.length secs) /. List.fold_left ( +. ) 0. secs );
    ("alloc_mwords_per_op", Stats.median ref_.Measure.alloc_words /. 1e6);
    ("peak_heap_mb", ref_.Measure.peak_heap_mb);
    ("detection_rate", ref_.Measure.detection_rate);
    ("precision", ref_.Measure.precision);
    ("abs_err_congested", ref_.Measure.abs_err_congested);
  ]

(* The highest percentile of op latency with at least ten samples
   beyond it: printed with its sample count, never gated. *)
let tail (r : Measure.result) =
  let secs = r.Measure.latencies in
  let n = List.length secs in
  List.find_map
    (fun (p, label) ->
      if float_of_int n *. (1. -. (p /. 100.)) >= 10. then
        Some (label, Stats.percentile secs p *. 1e3, n)
      else None)
    [ (99.9, "latency_ms_p999"); (99., "latency_ms_p99"); (90., "latency_ms_p90") ]
