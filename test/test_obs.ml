(* Tests for lib/obs: histogram bucket-edge semantics, deterministic
   counter merges under the domain pool, well-formed trace JSONL from pool
   workers, and the contract that enabling telemetry never changes the
   bits the inference computes. *)

module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Pool = Parallel.Pool

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal v1 v2 =
  Array.length v1 = Array.length v2 && Array.for_all2 bits_equal v1 v2

(* --- histograms -------------------------------------------------------- *)

let test_histogram_bucket_edges () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~buckets:[| 1.; 2.; 4. |] "h_seconds" in
  (* Prometheus inclusive-le: an observation equal to an edge lands in
     that edge's bucket; above the last edge goes to the +Inf overflow *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.0; 1.5; 2.0; 4.0; 4.5 ];
  Alcotest.(check (array int))
    "per-bucket counts" [| 2; 2; 1; 1 |]
    (Obs.Metrics.histogram_counts h);
  Alcotest.(check int) "total count" 6 (Obs.Metrics.histogram_count h);
  Alcotest.(check bool) "sum" true
    (abs_float (Obs.Metrics.histogram_sum h -. 13.5) < 1e-12)

let test_histogram_rejects_bad_buckets () =
  let reg = Obs.Metrics.create () in
  Alcotest.check_raises "non-increasing edges"
    (Invalid_argument
       "Obs.Metrics.histogram: bucket edges must be strictly increasing")
    (fun () -> ignore (Obs.Metrics.histogram reg ~buckets:[| 1.; 1. |] "bad"))

let test_registration_idempotent () =
  let reg = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter reg "shared_total" in
  let c2 = Obs.Metrics.counter reg "shared_total" in
  Obs.Metrics.incr c1;
  Obs.Metrics.incr c2;
  Alcotest.(check int) "same underlying cells" 2 (Obs.Metrics.counter_value c1);
  Alcotest.check_raises "type clash rejected"
    (Invalid_argument
       "Obs.Metrics: \"shared_total\" registered with another type")
    (fun () -> ignore (Obs.Metrics.gauge reg "shared_total"))

let test_disabled_probes_are_inert () =
  let reg = Obs.Metrics.create ~on:false () in
  let c = Obs.Metrics.counter reg "quiet_total" in
  let h = Obs.Metrics.histogram reg "quiet_seconds" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 1.0;
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.histogram_count h)

(* --- deterministic merges under the pool ------------------------------- *)

let test_counter_merge_across_jobs () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg "work_total" in
  let h = Obs.Metrics.histogram reg "work_seconds" in
  List.iter
    (fun jobs ->
      Obs.Metrics.reset reg;
      Pool.parallel_for ~jobs ~min_block:16 ~n:5000 (fun i ->
          Obs.Metrics.incr c;
          if i land 1023 = 0 then Obs.Metrics.observe h 1e-4);
      (* sharded integer cells merge by summation: the merged value is
         independent of which domain ran which block *)
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d counter" jobs)
        5000
        (Obs.Metrics.counter_value c);
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d histogram count" jobs)
        5
        (Obs.Metrics.histogram_count h))
    [ 1; 2; 4 ]

(* --- trace JSONL from pool workers ------------------------------------- *)

(* minimal structural validity: a single-line JSON object, braces and
   brackets balanced outside strings, quotes closed, escapes consumed *)
let json_object_well_formed line =
  let n = String.length line in
  let s =
    if n > 0 && line.[n - 1] = ',' then String.sub line 0 (n - 1) else line
  in
  let n = String.length s in
  if n < 2 || s.[0] <> '{' || s.[n - 1] <> '}' then false
  else begin
    let depth = ref 0 and in_str = ref false and esc = ref false in
    let ok = ref true in
    String.iter
      (fun ch ->
        if !esc then esc := false
        else if !in_str then begin
          match ch with
          | '\\' -> esc := true
          | '"' -> in_str := false
          | _ -> ()
        end
        else
          match ch with
          | '"' -> in_str := true
          | '{' | '[' -> incr depth
          | '}' | ']' ->
              decr depth;
              if !depth < 0 then ok := false
          | _ -> ())
      s;
    !ok && !depth = 0 && (not !in_str) && not !esc
  end

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* pull an integer field out of one event line; enough of a parser for
   the fixed shapes Trace.emit produces *)
let field_int line key =
  let marker = Printf.sprintf "\"%s\": " key in
  let ml = String.length marker in
  let rec find i =
    if i + ml > String.length line then
      Alcotest.failf "field %s missing in %s" key line
    else if String.sub line i ml = marker then i + ml
    else find (i + 1)
  in
  let start = find 0 in
  let stop = ref start in
  while
    !stop < String.length line
    && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
  do
    incr stop
  done;
  int_of_string (String.sub line start (!stop - start))

let test_pool_spans_well_formed_jsonl () =
  let tr = Obs.Trace.default in
  let sink, lines = Obs.Sink.memory () in
  Obs.Trace.set_sink tr (Some sink);
  Obs.Event.span "outer" (fun () ->
      Pool.for_blocks ~jobs:2 4 (fun b ->
          Obs.Event.span "inner"
            ~fields:[ ("block", Obs.Field.Int b) ]
            (fun () -> ignore (Sys.opaque_identity (b * b)))));
  Obs.Trace.set_sink tr None;
  let ls = lines () in
  (match ls with
  | opening :: _ -> Alcotest.(check string) "array opening" "[" opening
  | [] -> Alcotest.fail "empty trace");
  let events = List.tl ls in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "well-formed event %s" l)
        true (json_object_well_formed l))
    events;
  let named name = List.filter (contains ~needle:("\"name\": \"" ^ name ^ "\"")) events in
  (* 1 outer + 4 inner + 4 pool.task wrappers *)
  Alcotest.(check int) "one outer span" 1 (List.length (named "outer"));
  Alcotest.(check int) "inner span per block" 4 (List.length (named "inner"));
  Alcotest.(check int) "pool.task span per block" 4
    (List.length (named "pool.task"));
  (* nesting: whatever domain each inner span ran on, its time range is
     contained in the outer span's range *)
  let outer = List.hd (named "outer") in
  let o_ts = field_int outer "ts" and o_dur = field_int outer "dur" in
  List.iter
    (fun l ->
      let ts = field_int l "ts" and dur = field_int l "dur" in
      Alcotest.(check bool) "starts inside outer" true (ts >= o_ts);
      Alcotest.(check bool) "ends inside outer" true
        (ts + dur <= o_ts + o_dur))
    (named "inner")

(* --- telemetry never changes the inference ----------------------------- *)

let random_campaign seed =
  let rng = Rng.create seed in
  let n = 120 + (seed mod 80) in
  let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:13 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:12 in
  (r, y_learn, target.Netsim.Snapshot.y)

let prop_inference_bits_unchanged_by_obs =
  QCheck.Test.make ~count:4
    ~name:"inference bit-identical with telemetry enabled vs disabled"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, y_now = random_campaign seed in
      let reg = Obs.Metrics.default in
      Obs.Metrics.disable reg;
      let off = Core.Lia.infer ~r ~y_learn ~y_now () in
      Obs.Metrics.reset reg;
      Obs.Metrics.enable reg;
      let trace_sink, _ = Obs.Sink.memory () in
      Obs.Trace.set_sink Obs.Trace.default (Some trace_sink);
      let log_sink, _ = Obs.Sink.memory () in
      Obs.Logger.set_sink Obs.Logger.default (Some log_sink);
      Obs.Logger.set_level Obs.Logger.default (Some Obs.Logger.Debug);
      let on = Core.Lia.infer ~r ~y_learn ~y_now () in
      Obs.Logger.set_level Obs.Logger.default None;
      Obs.Logger.set_sink Obs.Logger.default None;
      Obs.Trace.set_sink Obs.Trace.default None;
      Obs.Metrics.disable reg;
      Obs.Metrics.reset reg;
      vec_bits_equal off.Core.Lia.loss_rates on.Core.Lia.loss_rates
      && off.Core.Lia.kept = on.Core.Lia.kept)

(* --- histogram quantiles ------------------------------------------------ *)

let test_histogram_quantile () =
  let reg = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram reg ~buckets:[| 1.; 2.; 4. |] "q_seconds" in
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Obs.Metrics.histogram_quantile h 0.5));
  (* 10 observations in (0,1], 10 in (1,2]: the median sits exactly at
     the shared edge, p75 interpolates halfway into the second bucket *)
  for _ = 1 to 10 do
    Obs.Metrics.observe h 0.5;
    Obs.Metrics.observe h 1.5
  done;
  let close msg want got = Alcotest.(check bool) msg true (abs_float (want -. got) < 1e-9) in
  close "p50 at bucket edge" 1.0 (Obs.Metrics.histogram_quantile h 0.5);
  close "p75 interpolated" 1.5 (Obs.Metrics.histogram_quantile h 0.75);
  close "p100 upper edge" 2.0 (Obs.Metrics.histogram_quantile h 1.0);
  (* overflow bucket clamps to the largest finite edge *)
  Obs.Metrics.observe h 100.;
  close "overflow clamped" 4.0 (Obs.Metrics.histogram_quantile h 1.0);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Obs.Metrics.histogram_quantile: q outside [0, 1]")
    (fun () -> ignore (Obs.Metrics.histogram_quantile h 1.5))

(* --- flight recorder ---------------------------------------------------- *)

(* an event stamped here, as Obs.Event.emit would stamp it *)
let event ?(fields = []) ~kind name =
  {
    Obs.Recorder.seq = 0;
    domain = (Domain.self () :> int);
    ts_us = Obs.Clock.now_us ();
    kind;
    name;
    fields;
  }

let test_recorder_drop_oldest () =
  let rec_ = Obs.Recorder.create ~capacity:4 () in
  Obs.Recorder.enable rec_;
  for i = 0 to 9 do
    Obs.Recorder.record rec_
      (event ~kind:"instant" ~fields:[ ("i", Obs.Field.Int i) ] "tick")
  done;
  Alcotest.(check int) "recorded counts everything" 10
    (Obs.Recorder.recorded rec_);
  Alcotest.(check int) "dropped the overflow" 6 (Obs.Recorder.dropped rec_);
  let evs = Obs.Recorder.events rec_ in
  Alcotest.(check int) "kept exactly capacity" 4 (List.length evs);
  (* drop-oldest: survivors are the last 4, in order *)
  Alcotest.(check (list int))
    "newest survive in order" [ 6; 7; 8; 9 ]
    (List.map (fun e -> e.Obs.Recorder.seq) evs);
  Obs.Recorder.reset rec_;
  Alcotest.(check int) "reset empties" 0
    (List.length (Obs.Recorder.events rec_))

let prop_recorder_ring_semantics =
  QCheck.Test.make ~count:50 ~name:"recorder ring keeps the newest tail"
    QCheck.(pair (int_range 1 32) (int_range 0 100))
    (fun (capacity, n) ->
      let rec_ = Obs.Recorder.create ~capacity () in
      Obs.Recorder.enable rec_;
      for i = 0 to n - 1 do
        Obs.Recorder.record rec_
          (event ~kind:"instant" ~fields:[ ("i", Obs.Field.Int i) ] "tick")
      done;
      let evs = Obs.Recorder.events rec_ in
      let kept = min n capacity in
      Obs.Recorder.recorded rec_ = n
      && Obs.Recorder.dropped rec_ = max 0 (n - capacity)
      && List.length evs = kept
      && List.map (fun e -> e.Obs.Recorder.seq) evs
         = List.init kept (fun k -> n - kept + k))

let prop_recorder_merge_jobs_invariant =
  QCheck.Test.make ~count:20
    ~name:"recorder event multiset invariant across jobs"
    QCheck.(int_range 1 1000)
    (fun seed ->
      let runs =
        List.map
          (fun jobs ->
            let rec_ = Obs.Recorder.create () in
            Obs.Recorder.enable rec_;
            Pool.parallel_for ~jobs ~min_block:16 ~n:(200 + (seed mod 100))
              (fun i ->
                Obs.Recorder.record rec_
                  (event ~kind:"work" ~fields:[ ("i", Obs.Field.Int i) ] "block"));
            Obs.Recorder.events rec_
            |> List.map (fun e ->
                   ( e.Obs.Recorder.kind,
                     e.Obs.Recorder.name,
                     e.Obs.Recorder.fields ))
            |> List.sort compare)
          [ 1; 2; 4 ]
      in
      match runs with
      | [ a; b; c ] -> a = b && a = c
      | _ -> false)

(* The recorder's jobs-invariance contract on the library's own probes:
   a checked cgls inference records the same (kind, name, fields)
   multiset at jobs 1 and 4 — stamps, domains, durations and allocation
   words aside, and solve ids renumbered by first appearance — also with
   a trace output on, whose pool.task spans stay out of the ring. *)
let checked_events ~trace ~jobs (r, y_learn, y_now) =
  let rcd = Obs.Recorder.default in
  Obs.Recorder.reset rcd;
  Obs.Recorder.enable rcd;
  if trace then
    Obs.Trace.set_sink Obs.Trace.default (Some (fst (Obs.Sink.memory ())));
  ignore
    (Core.Lia.infer_checked ~solver:Core.Lia.default_cgls ~jobs ~r ~y_learn
       ~y_now ());
  Obs.Trace.set_sink Obs.Trace.default None;
  Obs.Recorder.disable rcd;
  let events = Obs.Recorder.events rcd in
  Obs.Recorder.reset rcd;
  let ids = Hashtbl.create 4 in
  let field = function
    | "dur_us", _ | "alloc_words", _ -> None
    | "solve", Obs.Field.Int id ->
        if not (Hashtbl.mem ids id) then
          Hashtbl.add ids id (Hashtbl.length ids + 1);
        Some ("solve", Obs.Field.Int (Hashtbl.find ids id))
    | f -> Some f
  in
  List.map
    (fun (e : Obs.Recorder.event) ->
      (e.kind, e.name, List.filter_map field e.fields))
    events
  |> List.sort compare

let planetlab_campaign ~hosts seed =
  let rng = Rng.create seed in
  let tb = Topology.Overlay.planetlab_like rng ~hosts () in
  let r = (Topology.Testbed.routing tb).Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:21 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:20 in
  (r, y_learn, target.Netsim.Snapshot.y)

let prop_checked_events_jobs_invariant ~trace =
  QCheck.Test.make ~count:3
    ~name:
      (Printf.sprintf "checked inference records a jobs-invariant multiset (%s)"
         (if trace then "trace on" else "trace off"))
    QCheck.(int_range 1 5000)
    (fun seed ->
      let campaign =
        planetlab_campaign ~hosts:(if trace then 16 else 13 + (seed mod 6)) seed
      in
      let one = checked_events ~trace ~jobs:1 campaign in
      one <> [] && one = checked_events ~trace ~jobs:4 campaign)

(* the recorder-off vs recorder-on bit-identity contract, exercised
   through the cgls path so the per-iteration solver probes fire *)
let prop_inference_bits_unchanged_by_recorder =
  QCheck.Test.make ~count:4
    ~name:"inference bit-identical with recorder + convergence on vs off"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, y_now = random_campaign seed in
      let solver =
        Core.Lia.Cgls
          {
            tol = 1e-10;
            max_iter = None;
            sample = None;
            precond = Core.Variance_estimator.Pc_jacobi;
          }
      in
      Obs.Recorder.disable Obs.Recorder.default;
      let off = Core.Lia.infer ~solver ~r ~y_learn ~y_now () in
      Obs.Recorder.enable Obs.Recorder.default;
      let conv_sink, _ = Obs.Sink.memory () in
      Obs.Convergence.set_sink Obs.Convergence.default (Some conv_sink);
      let on = Core.Lia.infer ~solver ~r ~y_learn ~y_now () in
      Obs.Convergence.set_sink Obs.Convergence.default None;
      Obs.Recorder.disable Obs.Recorder.default;
      Obs.Recorder.reset Obs.Recorder.default;
      vec_bits_equal off.Core.Lia.loss_rates on.Core.Lia.loss_rates
      && off.Core.Lia.kept = on.Core.Lia.kept)

(* --- convergence stream ------------------------------------------------- *)

(* every line is one well-formed JSON object; iteration indices within a
   solve id are strictly increasing from 1 *)
let prop_convergence_jsonl_well_formed =
  QCheck.Test.make ~count:10 ~name:"convergence JSONL well-formed"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, y_now = random_campaign seed in
      let solver =
        Core.Lia.Cgls
          {
            tol = 1e-10;
            max_iter = None;
            sample = None;
            precond = Core.Variance_estimator.Pc_none;
          }
      in
      let sink, lines = Obs.Sink.memory () in
      Obs.Convergence.set_sink Obs.Convergence.default (Some sink);
      ignore (Core.Lia.infer ~solver ~r ~y_learn ~y_now ());
      Obs.Convergence.set_sink Obs.Convergence.default None;
      let ls = lines () in
      let last_iter = Hashtbl.create 8 in
      ls <> []
      && List.for_all
           (fun line ->
             json_object_well_formed line
             &&
             match Obs.Json.of_string_opt line with
             | None -> false
             | Some json -> (
                 let get k f = Option.bind (Obs.Json.member k json) f in
                 match
                   ( get "solver" Obs.Json.to_string_opt,
                     get "solve" Obs.Json.to_int_opt,
                     get "iteration" Obs.Json.to_int_opt,
                     get "relres" Obs.Json.to_float_opt )
                 with
                 | Some _, Some solve, Some iteration, Some relres ->
                     let prev =
                       Option.value ~default:0 (Hashtbl.find_opt last_iter solve)
                     in
                     Hashtbl.replace last_iter solve iteration;
                     iteration = prev + 1 && relres >= 0.
                 | _ -> false))
           ls)

(* --- decoders invert the writers ------------------------------------------ *)

(* strings with quotes, backslashes and control characters *)
let gen_text =
  QCheck.Gen.(
    string_size (int_range 0 10)
      ~gen:
        (frequency
           [ (4, char_range ' ' '~'); (1, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031' ]) ]))

(* JSON numbers are doubles: integers stay within 2^52 to be exact *)
let gen_field =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Obs.Field.Str s) gen_text;
        map (fun i -> Obs.Field.Int i) (int_range (-(1 lsl 52)) (1 lsl 52));
        map (fun x -> Obs.Field.Float x)
          (oneof [ float; oneofl [ 0.1 +. 0.2; -0.; 1e-300; Float.nan; Float.infinity ] ]);
        map (fun b -> Obs.Field.Bool b) bool;
      ])

let gen_fields =
  QCheck.Gen.(
    list_size (int_range 0 5)
      (pair
         (gen_text >|= fun k -> if k = "dur_us" || k = "alloc_words" then k ^ "_" else k)
         gen_field))

let gen_event =
  QCheck.Gen.(
    map
      (fun ((domain, ts_us), (kind, name), fields) ->
        { Obs.Recorder.seq = 0; domain; ts_us = Int64.of_int ts_us; kind; name; fields })
      (triple
         (pair (int_range 0 64) (int_range (1 lsl 20) (1 lsl 50)))
         (pair gen_text gen_text) gen_fields))

(* json_float writes 12 significant digits (non-finite as null, read
   back as nan); an integral float reads back as Int *)
let field_agrees a b =
  let written x = float_of_string (Printf.sprintf "%.12g" x) in
  match (a, b) with
  | Obs.Field.Float x, Obs.Field.Float y ->
      if Float.is_finite x then written x = y else Float.is_nan y
  | Obs.Field.Float x, Obs.Field.Int i -> written x = float_of_int i
  | _ -> a = b

let event_agrees (a : Obs.Recorder.event) (b : Obs.Recorder.event) =
  a.seq = b.seq && a.domain = b.domain && a.ts_us = b.ts_us && a.kind = b.kind
  && a.name = b.name
  && List.length a.fields = List.length b.fields
  && List.for_all2 (fun (k, x) (k', y) -> k = k' && field_agrees x y) a.fields b.fields

let print_event (e : Obs.Recorder.event) =
  Printf.sprintf "%S/%S domain %d ts %Ld %s" e.kind e.name e.domain e.ts_us
    (Obs.Field.assoc_json e.fields)

let decodes_to line expected =
  match Obs.Report.decode line with
  | Some e -> event_agrees expected e || QCheck.Test.fail_reportf "%s\ndecoded as %s" line (print_event e)
  | None -> QCheck.Test.fail_reportf "no event decoded from %s" line

let prop_dump_line_decodes =
  QCheck.Test.make ~count:300 ~name:"dump line decodes back to the recorded event"
    (QCheck.make ~print:print_event gen_event)
    (fun e ->
      let rcd = Obs.Recorder.create () in
      Obs.Recorder.enable rcd;
      Obs.Recorder.record rcd e;
      let sink, lines = Obs.Sink.memory () in
      Obs.Recorder.dump rcd ~reason:"test" sink;
      match lines () with
      | [ _header; line ] -> decodes_to line e
      | ls -> QCheck.Test.fail_reportf "%d dump lines" (List.length ls))

let written_line set_sink write e =
  let sink, lines = Obs.Sink.memory () in
  set_sink (Some sink);
  write e;
  set_sink None;
  List.nth (lines ()) (List.length (lines ()) - 1)

let prop_trace_and_convergence_decode =
  QCheck.Test.make ~count:300
    ~name:"trace span_end and convergence line decode back"
    QCheck.(make Gen.(triple gen_event (int_range 0 1_000_000) (int_range 1 500)))
    (fun (e, dur, iteration) ->
      let span =
        {
          e with
          kind = "span_end";
          fields =
            e.fields
            @ [ ("dur_us", Obs.Field.Int dur); ("alloc_words", Obs.Field.Int 7) ];
        }
      in
      let iter =
        {
          e with
          kind = "solver_iter";
          fields =
            ("solve", Obs.Field.Int 1)
            :: ("iteration", Obs.Field.Int iteration)
            :: ("relres", Obs.Field.Float (1. /. float_of_int iteration))
            :: e.fields;
        }
      in
      decodes_to
        (written_line (Obs.Trace.set_sink Obs.Trace.default)
           (Obs.Trace.write Obs.Trace.default) span)
        { span with fields = e.fields @ [ ("dur_us", Obs.Field.Int dur) ] }
      && decodes_to
           (written_line
              (Obs.Convergence.set_sink Obs.Convergence.default)
              (Obs.Convergence.write Obs.Convergence.default)
              iter)
           { iter with domain = 0; ts_us = 0L })

(* --- report rendering --------------------------------------------------- *)

let test_report_renders_sections () =
  let recorder =
    String.concat "\n"
      [
        {|{"kind": "recorder_dump", "reason": "nonconvergence", "events": 4, "dropped": 0, "capacity": 4096}|};
        {|{"kind": "span_end", "name": "plan.solve", "domain": 0, "seq": 1, "ts_us": 10, "args": {"dur_us": 250, "alloc_words": 1000}}|};
        {|{"kind": "solver_iter", "name": "cgls", "domain": 0, "seq": 2, "ts_us": 11, "args": {"solve": 1, "iteration": 1, "relres": 0.25, "phase": "phase2", "precond": "none", "warm": false}}|};
        {|{"kind": "solver_done", "name": "cgls", "domain": 0, "seq": 3, "ts_us": 12, "args": {"solve": 1, "iterations": 1, "relres": 0.25, "converged": false, "phase": "phase2", "precond": "none", "warm": false}}|};
        {|{"kind": "verdict", "name": "lia.verdict", "domain": 0, "seq": 4, "ts_us": 13, "args": {"health": "degraded", "summary": "degraded (kept 8/10)"}}|};
      ]
  in
  let out = Obs.Report.render ~recorder () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report has %S" needle) true
        (contains ~needle out))
    [
      "reason=nonconvergence";
      "Per-phase profile";
      "plan.solve";
      "Convergence";
      "phase2";
      "2.500e-01";
      "NO";
      "Residual tail";
      "verdict: degraded";
    ];
  Alcotest.(check bool) "empty inputs say so" true
    (contains ~needle:"no telemetry"
       (Obs.Report.render ~recorder:"not json at all" ()))

(* --- metric naming convention ------------------------------------------- *)

let test_metric_names_conform () =
  (* force every metric-registering module to link so its top-level
     registrations land in the default registry before the scan *)
  let touch : 'a. 'a -> unit = fun x -> ignore (Sys.opaque_identity x) in
  touch Core.Monitor.create;
  touch Core.Quarantine.scrub;
  touch Core.Plan.make;
  touch Core.Covariance.sigma_star;
  touch Core.Augmented.build;
  touch Core.Variance_estimator.estimate;
  touch Linalg.Conjugate_gradient.cgls_iterations;
  touch Pool.get;
  let prefixes = [ "lia_"; "pool_"; "plan_" ] in
  let conforms name =
    List.exists
      (fun p ->
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p)
      prefixes
  in
  let offenders =
    List.filter
      (fun n -> not (conforms n))
      (Obs.Metrics.names Obs.Metrics.default)
  in
  Alcotest.(check (list string))
    "every registered metric is lia_/pool_/plan_-prefixed" [] offenders

(* --- dump format ------------------------------------------------------- *)

let test_dump_prometheus_shape () =
  let reg = Obs.Metrics.create () in
  let c = Obs.Metrics.counter reg ~help:"things done" "things_total" in
  let h = Obs.Metrics.histogram reg ~buckets:[| 0.1; 1. |] "lat_seconds" in
  Obs.Metrics.incr c;
  Obs.Metrics.observe h 0.05;
  Obs.Metrics.observe h 5.0;
  let d = Obs.Metrics.dump reg in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "dump has %S" needle) true
        (contains ~needle d))
    [
      "# HELP things_total things done";
      "# TYPE things_total counter";
      "things_total 1";
      "# TYPE lat_seconds histogram";
      "lat_seconds_bucket{le=\"0.1\"} 1";
      (* cumulative: +Inf counts every observation *)
      "lat_seconds_bucket{le=\"+Inf\"} 2";
      "lat_seconds_count 2";
    ]

let metrics_tests =
  [
    Alcotest.test_case "histogram: inclusive bucket edges" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "histogram: bad buckets rejected" `Quick
      test_histogram_rejects_bad_buckets;
    Alcotest.test_case "registration idempotent by name" `Quick
      test_registration_idempotent;
    Alcotest.test_case "disabled probes are inert" `Quick
      test_disabled_probes_are_inert;
    Alcotest.test_case "counter merge jobs-invariant" `Quick
      test_counter_merge_across_jobs;
    Alcotest.test_case "dump: Prometheus text shape" `Quick
      test_dump_prometheus_shape;
    Alcotest.test_case "histogram quantile interpolation" `Quick
      test_histogram_quantile;
    Alcotest.test_case "metric names conform to lia_/pool_/plan_" `Quick
      test_metric_names_conform;
  ]

let trace_tests =
  [
    Alcotest.test_case "pool spans emit well-formed JSONL" `Quick
      test_pool_spans_well_formed_jsonl;
  ]

let recorder_tests =
  Alcotest.test_case "ring drops oldest, keeps newest" `Quick
    test_recorder_drop_oldest
  :: Alcotest.test_case "report renders all sections" `Quick
       test_report_renders_sections
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_recorder_ring_semantics;
         prop_recorder_merge_jobs_invariant;
         prop_checked_events_jobs_invariant ~trace:false;
         prop_checked_events_jobs_invariant ~trace:true;
         prop_convergence_jsonl_well_formed;
         prop_dump_line_decodes;
         prop_trace_and_convergence_decode;
       ]

let invariance_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_inference_bits_unchanged_by_obs;
      prop_inference_bits_unchanged_by_recorder;
    ]

let () =
  Alcotest.run "obs"
    [
      ("metrics", metrics_tests);
      ("trace", trace_tests);
      ("recorder", recorder_tests);
      ("invariance", invariance_tests);
    ]
