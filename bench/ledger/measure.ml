(* One workload, measured in two fresh processes. The first makes the
   reference pass: one set-up, then an untimed pass over the fixed
   reference inputs for allocation, peak heap and accuracy. The second
   times repeated fresh set-ups, a discarded warm-up op and a closed loop
   of ops (one caller, no think time) for the configured time and over
   every distinct input at least once, with host probes between them,
   then makes the correctness checks, the traced run on request and the
   CLI parity check. *)

module Lia = Core.Lia
module Plan = Core.Plan

type config = {
  seconds : float;  (** length of the timed loop; 0 = one pass over the inputs *)
  traced : bool;
  cli : string;  (** [lia_cli] for the parity check *)
  out : string;  (** directory for traces and parity documents *)
}

(* What the reference pass measures. It depends only on the code and
   the workload, not on the seed or the host. *)
type reference = {
  alloc_words : float list;  (** words one op allocates, per reference input *)
  peak_heap_mb : float;  (** of the process that made the pass *)
  detection_rate : float;  (** pooled over the reference inputs *)
  precision : float;  (** 1 - the paper's false-positive rate, likewise *)
  abs_err_congested : float;
      (** mean |inferred - realized| loss over the reference inputs'
          truly congested links *)
  ref_attempted : int;
  ref_failed : int;
  ref_failures : string list;
}

type result = {
  workload : string;
  seed : int;
  slowdown : float;
      (** median over the run's probes of how many times slower than the
          reference host the host ran ([Host]) *)
  setups : float list;  (** seconds per fresh set-up, at the reference speed *)
  latencies : float list;
      (** seconds per timed op of the whole passes over the inputs, at the
          reference speed, in run order *)
  reference : reference;
  attempted : int;  (** ops of both passes *)
  failed : int;
  failures : string list;  (** failed ops and run-level checks *)
  layers : (string * float list) list;
      (** per-layer metrics of the traced run, as per-op samples; a layer
          that does no work on this workload has none *)
}

(* set-up runs: at least [min_setups], and more until a tenth of the
   run's length has been spent in set-up *)
let min_setups = 5

(* seconds of timed ops between two host probes: a probe takes ~11 ms *)
let probe_every = 0.5

(* Accuracy floors on the clean workloads, checked on the reference
   inputs: detection rate >= 0.9, false-positive rate <= 0.1. *)
let min_detection_rate = 0.9
let min_precision = 0.9

(* the floors need this many truly congested links scored to mean
   anything; smoke-sized runs score fewer *)
let min_scored = 100

(* share of a traced diagnose op its child spans must cover, checked on
   time-boxed runs (at smoke sizes the glue between calls weighs more) *)
let min_coverage = 0.9

let now = Unix.gettimeofday

let estimate_digest (r : Lia.result) =
  Digest.string (Marshal.to_string (r.Lia.loss_rates, r.Lia.variances) [])

(* Pooled scoring against the target snapshot's drawn statuses and
   realized loss rates. As in the paper's Table 2 experiments, a good
   link whose realized loss really exceeded the threshold during the
   snapshot is not a false positive. *)
type score = {
  mutable congested : int;
  mutable flagged : int;
  mutable hits : int;
  mutable abs_err : float;  (** summed over truly congested links *)
}

let score_into s (truth : Workload.truth) (r : Lia.result) =
  Array.iteri
    (fun k c ->
      let loss = r.Lia.loss_rates.(k) in
      let flagged = loss > Workload.threshold in
      let honest = flagged && (not c) && truth.realized.(k) > Workload.threshold in
      if c then begin
        s.congested <- s.congested + 1;
        s.abs_err <- s.abs_err +. Float.abs (loss -. truth.realized.(k))
      end;
      if flagged && not honest then begin
        s.flagged <- s.flagged + 1;
        if c then s.hits <- s.hits + 1
      end)
    truth.congested

let ratio a b = if b = 0 then 1. else float_of_int a /. float_of_int b

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

type state = {
  w : Workload.t;
  inp : Workload.inputs;
  env : Pipeline.env;
  first : (string * Digest.t) option array;
      (** per input: the text and estimate digest of its first run; every
          later run must repeat them *)
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** newest first *)
}

let fail st fmt = Printf.ksprintf (fun s -> st.failures <- s :: st.failures) fmt

let text_of st k = Option.fold ~none:"" ~some:fst st.first.(k)

(* Records the failed checks of one op; the op fails if any did. *)
let judge st ~what k problems =
  let problems = List.filter_map Fun.id problems in
  List.iter (fun p -> fail st "%s %s %d: %s" st.w.name what k p) problems;
  if problems <> [] then st.failed <- st.failed + 1

(* The checks every op's outcome must pass: its verdict, and finite
   estimates in range. *)
let invalid st (o : Pipeline.outcome) =
  let r = o.Pipeline.result in
  let expected = if st.w.degraded then "degraded" else "clean" in
  if Lia.health_label o.Pipeline.health <> expected then
    Some ("verdict " ^ Lia.health_summary o.Pipeline.health)
  else if
    not
      (Array.for_all (fun l -> Float.is_finite l && l >= 0. && l < 1.) r.Lia.loss_rates
      && Array.for_all Float.is_finite r.Lia.variances)
  then Some "non-finite or out-of-range estimate"
  else None

(* One op on input [k]: the document is rendered untimed; the timed
   step is what the CLI does with it. Returns the outcome, its seconds
   and its allocated words; an exception is a failed op. *)
let op st k =
  st.attempted <- st.attempted + 1;
  let doc = Workload.doc st.w st.inp k in
  if st.w.degraded then Pipeline.telemetry_reset ();
  let w0 = Spans.allocated () in
  let t0 = now () in
  match
    match st.w.mode with
    | Workload.Serve -> Pipeline.serve st.env ~index:k doc
    | Workload.Diagnose ->
        let o = Pipeline.diagnose st.w st.env doc in
        if st.w.degraded then ignore (Pipeline.telemetry_dump ());
        o
  with
  | o -> Some (o, now () -. t0, Spans.allocated () -. w0)
  | exception e ->
      st.failed <- st.failed + 1;
      fail st "%s input %d: %s" st.w.name k (Printexc.to_string e);
      None

(* An op on the run's input [k]: checked, and its output bits must
   repeat those of the input's first run. Returns its seconds. *)
let timed st k =
  Option.map
    (fun (o, seconds, _) ->
      let bits = (o.Pipeline.text, estimate_digest o.Pipeline.result) in
      let repeat =
        match st.first.(k) with
        | None ->
            st.first.(k) <- Some bits;
            None
        | Some b -> if b = bits then None else Some "output bits differ from the input's first run"
      in
      judge st ~what:"input" k [ invalid st o; repeat ];
      seconds)
    (op st k)

(* [setup w inp t] makes a fresh set-up for [w] on [inp]'s testbed,
   traced by [t]; the documents are rendered once, before. *)
let setup (w : Workload.t) (inp : Workload.inputs) =
  let learn_doc =
    match w.mode with
    | Workload.Serve -> Some (Workload.learn_doc inp)
    | Workload.Diagnose -> None
  in
  fun t -> Pipeline.setup ~t w ~testbed:inp.testbed ~learn_doc

let fresh_state w inp env =
  {
    w;
    inp;
    env;
    first = Array.make (Array.length inp.Workload.truth) None;
    attempted = 0;
    failed = 0;
    failures = [];
  }

(* The reference pass, alone in its process: one set-up, then one
   untimed, checked op per reference input, each from a fully collected
   heap (otherwise the words the GC counters report for one op move by
   ~0.1 Mw with where the major cycle stands when it starts; a first op
   allocates within 0.01% of a later one on the same input, so no
   warm-up op is needed). Accuracy is pooled over the inputs. The peak
   heap is this process's, so it depends on the reference inputs alone;
   taken in the process that times the seed's inputs, it follows the
   largest plan among them, and read 111 or 123 MB on diagnose-992 with
   the seed. *)
let reference_pass (w : Workload.t) (inp : Workload.inputs) =
  let st = fresh_state w inp (setup w inp Pipeline.untraced) in
  if w.degraded then Pipeline.telemetry_on ();
  let s = { congested = 0; flagged = 0; hits = 0; abs_err = 0. } in
  let alloc_words =
    List.filter_map Fun.id
      (List.mapi
         (fun k truth ->
           Gc.full_major ();
           Option.map
             (fun (o, _, words) ->
               judge st ~what:"reference input" k [ invalid st o ];
               score_into s truth o.Pipeline.result;
               words)
             (op st k))
         (Array.to_list inp.Workload.truth))
  in
  let detection_rate = ratio s.hits s.congested and precision = ratio s.hits s.flagged in
  if (not w.degraded) && s.congested >= min_scored then begin
    if detection_rate < min_detection_rate then
      fail st "%s: detection rate %.4f below %.2f" w.name detection_rate min_detection_rate;
    if precision < min_precision then
      fail st "%s: false-positive rate %.4f above %.2f" w.name (1. -. precision)
        (1. -. min_precision)
  end;
  {
    alloc_words;
    peak_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6;
    detection_rate;
    precision;
    abs_err_congested = s.abs_err /. float_of_int (max 1 s.congested);
    ref_attempted = st.attempted;
    ref_failed = st.failed;
    ref_failures = List.rev st.failures;
  }

(* The traced run: [n] ops again, decomposed into the calls
   [Lia.infer_checked] makes, each in a span, plus three traced set-ups.
   Returns per-op samples of every per-layer metric, times at the
   reference host's speed. [untraced_ms] is the timed loop's median op
   as the clock read it. *)
let traced cfg st ~slowdown ~n ~untraced_ms =
  let setup = setup st.w st.inp in
  let spans = Spans.create () in
  let t = Spans.tracer spans in
  let eliminate (r, variances) =
    t.span "rank_reduction.eliminate" (fun () -> Core.Rank_reduction.eliminate r variances)
  in
  for i = 1 to 3 do
    Spans.in_op spans ~op:(-i) "setup" (fun () ->
        let env : Pipeline.env = setup t in
        Option.iter (fun p -> ignore (eliminate (env.r, Plan.variances p))) env.plan)
  done;
  let counts = ref [] and events = ref [] in
  for k = 0 to n - 1 do
    let input = k mod Workload.distinct st.w in
    let doc = Workload.doc st.w st.inp input in
    if st.w.degraded then Pipeline.telemetry_reset ();
    st.attempted <- st.attempted + 1;
    match
      Spans.in_op spans ~op:k "op" (fun () ->
          match st.w.mode with
          | Workload.Serve -> (Pipeline.serve ~t st.env ~index:input doc, None)
          | Workload.Diagnose ->
              let o, c = Pipeline.diagnose_traced t st.w st.env doc in
              if st.w.degraded then events := t.span "obs.dump" Pipeline.telemetry_dump :: !events;
              (o, Some c))
    with
    | exception e ->
        st.failed <- st.failed + 1;
        fail st "%s traced input %d: %s" st.w.name input (Printexc.to_string e)
    | o, c ->
        if
          Some (o.Pipeline.text, estimate_digest o.Pipeline.result) <> st.first.(input)
        then begin
          st.failed <- st.failed + 1;
          fail st "%s traced input %d: decomposition differs from Lia.infer_checked"
            st.w.name input
        end;
        Option.iter
          (fun (c : Pipeline.counts) ->
            counts := c :: !counts;
            let elim = eliminate (c.plan_r, c.variances) in
            if elim.Core.Rank_reduction.kept <> c.kept then
              fail st "%s traced input %d: Rank_reduction.eliminate disagrees with the plan"
                st.w.name input)
          c
  done;
  mkdir_p cfg.out;
  write_file
    (Filename.concat cfg.out ("trace-" ^ st.w.name ^ ".json"))
    (Stats.to_string (Spans.to_json spans));
  (* a layer that only runs at set-up (routing, or the serving plan's
     Phase 1) is sampled there *)
  let per_op name =
    match Spans.per_op spans ~setup:false name with
    | [] -> Spans.per_op spans ~setup:true name
    | xs -> xs
  in
  let ms name = List.map (fun (d, _) -> d *. 1e3 /. slowdown) (per_op name) in
  let words name scale = List.map (fun (_, w) -> w /. scale) (per_op name) in
  let count f = List.map f !counts in
  let coverage = Spans.coverage spans "op" in
  let covered = List.map (fun (d, c) -> c /. d) coverage in
  if st.w.mode = Workload.Diagnose && cfg.seconds > 0. && Stats.median covered < min_coverage then
    fail st "%s: child spans cover %.1f%% of the op span (need %.0f%%)" st.w.name
      (100. *. Stats.median covered) (100. *. min_coverage);
  let op_ms = Stats.median (List.map fst coverage) *. 1e3 in
  [
    ("topology.of_string_ms", ms "topology.of_string");
    ("topology.routing_ms", ms "topology.routing");
    ("trace_io.of_string_ms", ms "trace_io.of_string");
    ("quarantine.scrub_ms", ms "quarantine.scrub");
    ("quarantine.rows_dropped", count (fun c -> float_of_int c.rows_dropped));
    ("variance_estimator.estimate_ms", ms "variance_estimator.estimate");
    ("variance_estimator.estimate_mwords", words "variance_estimator.estimate" 1e6);
    ("variance_estimator.cgls_iters", count (fun c -> float_of_int c.cgls_iters));
    ("variance_estimator.pairs_used_frac", count (fun c -> c.pairs_used_frac));
    ("rank_reduction.eliminate_ms", ms "rank_reduction.eliminate");
    ("plan.make_ms", ms "plan.make");
    ("plan.make_mwords", words "plan.make" 1e6);
    ( "plan.rank",
      match st.env.plan with
      | Some p -> [ float_of_int (Plan.rank p) ]
      | None -> count (fun c -> float_of_int c.rank) );
    ("plan.solve_ms", ms "plan.solve");
    ("plan.solve_kwords", words "plan.solve" 1e3);
    ("report.table_ms", ms "report.table");
    ("obs.dump_ms", ms "obs.dump");
    ("obs.recorder_events", List.map float_of_int !events);
    ("op.self_ms", List.map (fun (d, c) -> (d -. c) *. 1e3 /. slowdown) coverage);
    ("op.child_coverage", covered);
    ("trace.overhead_pct", [ ((op_ms /. untraced_ms) -. 1.) *. 100. ]);
  ]

(* The CLI, given the same documents, must print what the ops printed. *)
let parity cfg st =
  let w = st.w and inp = st.inp in
  let dir = Filename.concat cfg.out ("parity-" ^ w.name) in
  mkdir_p dir;
  let file name contents =
    let path = Filename.concat dir name in
    write_file path contents;
    path
  in
  let inputs, expected =
    match w.mode with
    | Workload.Diagnose ->
        ([ "--measurements"; file "measurements.txt" (Workload.doc w inp 0) ], text_of st 0)
    | Workload.Serve ->
        ( [
            "--measurements"; file "learn.txt" (Workload.learn_doc inp);
            "--snapshots"; file "snapshots.txt" (Workload.snapshots_doc inp);
          ],
          Pipeline.serve_header st.env ~learned:Workload.learning ~served:(Workload.distinct w)
          ^ String.concat "" (List.init (Workload.distinct w) (text_of st)) )
  in
  let telemetry =
    if w.degraded then
      [
        "--metrics"; Filename.concat dir "metrics.txt";
        "--flight-recorder"; Filename.concat dir "recorder.jsonl";
        "--convergence"; Filename.concat dir "convergence.jsonl";
      ]
    else []
  in
  let args =
    [ "infer"; "--testbed"; file "testbed.tb" inp.testbed; "-j"; "1" ]
    @ inputs
    @ (if w.cgls then [ "--solver"; "cgls" ] else [])
    @ telemetry
  in
  let ic = Unix.open_process_args_in cfg.cli (Array.of_list (cfg.cli :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      if out <> expected then
        fail st "%s: lia_cli output differs from the benchmark's rendering" w.name
  | Unix.WEXITED n -> fail st "%s: lia_cli infer exited %d" w.name n
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail st "%s: lia_cli infer got signal %d" w.name n

(* Host probes bracket every stretch of timed work: each set-up, and
   about [probe_every] seconds of ops. A stretch is reported at the
   reference speed: divided by the mean slowdown of the probes on either
   side of it, which follows the host's load as it comes and goes within
   the run. *)
type clock = { mutable last : float; mutable probes : float list }

let rescale clock times =
  let p = Host.probe () in
  let slowdown = (clock.last +. p) /. 2. in
  clock.last <- p;
  clock.probes <- p :: clock.probes;
  List.map (fun t -> t /. slowdown) times

let run (cfg : config) (w : Workload.t) (inp : Workload.inputs) ~(reference : reference) =
  let setup = setup w inp in
  let first = Host.probe () in
  let clock = { last = first; probes = [ first ] } in
  let setups, env =
    let rec go times total =
      let t0 = now () in
      let env = setup Pipeline.untraced in
      let dt = now () -. t0 in
      let times = rescale clock [ dt ] @ times in
      if List.length times >= min_setups && total +. dt >= cfg.seconds /. 10. then (times, env)
      else go times (total +. dt)
    in
    go [] 0.
  in
  if w.degraded then Pipeline.telemetry_on ();
  let st = fresh_state w inp env in
  (* the warm-up *)
  ignore (timed st 0);
  (* Every input is timed at least once, however slow the host, so the
     serving and parity checks know every input's bits. [stretch] holds
     the times since the last probe, [acc] those already rescaled, and
     [raw] every time as the clock read it; all newest first. *)
  let raw = ref [] in
  let distinct = Workload.distinct w in
  let all_ops =
    let t_start = now () in
    let continue k = k < distinct || now () -. t_start < cfg.seconds in
    let rec loop k stretch since acc =
      if not (continue k) then
        List.rev (if stretch = [] then acc else rescale clock stretch @ acc)
      else
        let t = Option.to_list (timed st (k mod distinct)) in
        raw := t @ !raw;
        let stretch = t @ stretch and since = List.fold_left ( +. ) since t in
        if since < probe_every then loop (k + 1) stretch since acc
        else loop (k + 1) [] 0. (rescale clock stretch @ acc)
    in
    loop 0 [] 0. []
  in
  (* Only whole passes over the inputs are reported. The ops past the
     last one would weigh some inputs twice and others once, and which
     ones would depend on the host's speed: the six inputs of
     diagnose-992 differ in cost by a fifth or more, and over ten seeds
     reporting whole passes narrowed the quartile spread of its median
     from 12.5% to 8.2%. *)
  let latencies =
    List.filteri (fun i _ -> i < List.length all_ops / distinct * distinct) all_ops
  in
  let slowdown = Stats.median clock.probes in
  (* serving: one batch through the plan must give every op's bits *)
  if w.mode = Workload.Serve then
    Array.iteri
      (fun k r ->
        if Option.map snd st.first.(k) <> Some (estimate_digest r) then
          fail st "%s: Plan.solve_batch row %d differs from Plan.solve" w.name k)
      (Plan.solve_batch ~jobs:1 (Pipeline.plan env)
         (Netsim.Trace_io.of_string (Workload.snapshots_doc inp)));
  let layers =
    if not cfg.traced then []
    else
      traced cfg st ~slowdown
        ~n:(max 2 (List.length latencies / 4))
        ~untraced_ms:(Stats.median !raw *. 1e3)
  in
  parity cfg st;
  {
    workload = w.name;
    seed = inp.seed;
    slowdown;
    setups = List.rev setups;
    latencies;
    reference;
    attempted = reference.ref_attempted + st.attempted;
    failed = reference.ref_failed + st.failed;
    failures = reference.ref_failures @ List.rev st.failures;
    layers;
  }
