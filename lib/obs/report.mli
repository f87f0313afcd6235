(** Post-hoc telemetry report: one operator-readable page from the raw
    files the pipeline writes.

    [render] takes the {e contents} (not paths) of any subset of the
    four telemetry outputs and returns the formatted page:

    - a per-phase wall-time + allocation profile ([span_end] events;
      those read from the trace carry no allocation words),
    - the top-N slowest individual spans,
    - a convergence summary table — one row per iterative solve with
      phase/preconditioner context, iteration count, final relative
      residual, and convergence verdict — plus the residual tail of the
      first non-converged solve (or the last solve when all converged),
    - the health verdict(s) with quarantine and non-convergence counts
      (recorder [verdict]/[quarantine] events, Prometheus counters as
      fallback).

    Every line of the three JSONL inputs is {!decode}d into the one
    event type and folded once. Sections render from whichever inputs
    carry their data; with no recognizable telemetry at all the result
    says so rather than printing an empty page. Run-to-run varying numbers
    (wall ms, alloc words) sit in their own columns, so the
    deterministic ones (names, iteration counts, residuals, verdicts)
    are stable to select in tests. *)

val render :
  ?recorder:string ->
  ?trace:string ->
  ?metrics:string ->
  ?convergence:string ->
  ?top:int ->
  ?tail:int ->
  unit ->
  string
(** [render ~recorder ~trace ~metrics ~convergence ~top ~tail ()] —
    every input optional; [top] (default 5) bounds the slow-span list,
    [tail] (default 8) the residual tail. Malformed lines are skipped,
    never fatal. *)

val decode : string -> Recorder.event option
(** Read one line of any of the three JSONL outputs back into the event
    it was rendered from, telling the formats apart by shape:
    - a flight-recorder dump line (has ["kind"]) gives the event as
      recorded; the dump header decodes as kind ["recorder_dump"] with
      its top-level members as fields;
    - a [--trace] line (has ["ph"]): ["X"] gives a [span_end] stamped at
      [ts + dur] with the args plus [dur_us] ([tid] as the domain), ["i"]
      an [instant];
    - a [--convergence] line (has ["solver"]) gives a [solver_iter] named
      after the solver.

    Integral numbers decode as [Field.Int], others as [Field.Float],
    [null] as a NaN [Field.Float]. Anything else is [None]. *)
