(** The one emission point of the telemetry stream.

    Every fact the library records — a span, an instant, a solver
    iteration or solve outcome, a quarantined row, a health verdict — is
    emitted by exactly one call here. {!emit} stamps the event once
    ({!Clock} microseconds and the emitting domain) and routes it by
    kind to the outputs that are switched on:

    - the flight recorder ({!Recorder.default}) takes every event except
      the pool's per-block [pool.task] spans: which blocks run, and on
      which domain, depends on [jobs], and the recorder's event multiset
      must not;
    - the [--trace] output ({!Trace.default}) renders [span_end] and
      [instant], and is the only output that gets [pool.task];
    - the [--convergence] output ({!Convergence.default}) renders
      [solver_iter].

    With every output off an event costs three loads and a branch.
    Nothing here reads the instrumented computation back: estimates are
    bit-for-bit identical with any output on or off. *)

val on : unit -> bool
(** Whether any output is switched on. A probe whose fields are costly
    to build checks it first. *)

val emit : ?fields:(string * Field.t) list -> kind:string -> string -> unit
(** [emit ~kind name] stamps one event and routes it. *)

val span : ?fields:(string * Field.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] between a [span_begin] and a [span_end]
    event, also when [f] raises. The [span_end] carries [fields] plus
    [dur_us] (microseconds) and [alloc_words] (words the span allocated
    on its domain). With every output off: exactly [f ()]. *)

val alloc_words : unit -> float
(** Words allocated by the calling domain so far, minor and major heap
    alike; a promoted word counts once. The difference of two readings is
    what ran between them allocated, plus the few words of a reading
    itself. Walks no heap. *)

val kernel :
  ?fields:(string * Field.t) list ->
  hist:Metrics.histogram ->
  string ->
  (unit -> 'a) ->
  'a
(** [kernel ~hist name f] is {!span} around {!Metrics.time}[ hist f]:
    the one-line probe of the instrumented hot layers. *)
