(* The telemetry stream's single write path: stamp each event once, then
   route it by kind. The routing table below is the whole contract
   between the probes and the three outputs. *)

let on () =
  Recorder.enabled Recorder.default
  || Trace.enabled Trace.default
  || Convergence.enabled Convergence.default

let route ~ts_us ~fields ~kind name =
  let ring = Recorder.enabled Recorder.default && name <> "pool.task" in
  let trace =
    Trace.enabled Trace.default && (kind = "span_end" || kind = "instant")
  in
  let conv = Convergence.enabled Convergence.default && kind = "solver_iter" in
  if ring || trace || conv then begin
    let e =
      { Recorder.seq = 0; domain = (Domain.self () :> int); ts_us; kind; name; fields }
    in
    if ring then Recorder.record Recorder.default e;
    if trace then Trace.write Trace.default e;
    if conv then Convergence.write Convergence.default e
  end

let emit ?(fields = []) ~kind name =
  if on () then route ~ts_us:(Clock.now_us ()) ~fields ~kind name

(* Gc.minor_words () reads the live young-pointer: quick_stat's minor
   count only moves at minor collections, and Gc.counters' reads short.
   Gc.counters' major count includes the words allocated directly in the
   major heap since the last slice, which quick_stat's lags behind.
   Subtracting promotions counts a promoted word once. *)
let alloc_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* the begin stamp doubles as the span's start, so dur_us is the
   difference of the two events' stamps *)
let span ?(fields = []) name f =
  if not (on ()) then f ()
  else begin
    let t0 = Clock.now_us () and w0 = alloc_words () in
    route ~ts_us:t0 ~fields ~kind:"span_begin" name;
    Fun.protect f ~finally:(fun () ->
        let t1 = Clock.now_us () in
        route ~ts_us:t1 ~kind:"span_end" name
          ~fields:
            (fields
            @ [
                ("dur_us", Field.Int (Int64.to_int (Int64.sub t1 t0)));
                ("alloc_words", Field.Int (int_of_float (alloc_words () -. w0)));
              ]))
  end

let kernel ?fields ~hist name f = span ?fields name (fun () -> Metrics.time hist f)
