(** The [--trace] output: the event stream's [span_end] and [instant]
    events rendered as Chrome trace-event JSONL.

    {!Event.emit} routes those two kinds here while a sink is installed;
    this module only renders them. A [span_end] becomes an ["X"]
    (complete) event whose [ts] is the span's start and [dur] its
    [dur_us] field, with the span's own fields as [args]; an [instant]
    becomes an ["i"] event. [tid] is the emitting domain's id, so spans
    raised inside pool workers appear on the worker's own row, and the
    viewer reconstructs nesting from time-range containment per [tid].
    The stream opens with a ["["] line and omits the closing bracket,
    which chrome://tracing and ui.perfetto.dev both accept and which
    keeps the file valid after a crash.

    This is the only output that gets the pool's per-block [pool.task]
    spans (see {!Event}). *)

type t

val default : t
(** The process-wide trace output. Starts with no sink (disabled). *)

val enabled : t -> bool

val set_sink : t -> Sink.t option -> unit
(** Install (or remove, with [None]) the output sink; any previous sink
    is closed, and a fresh sink immediately receives the opening ["["]
    line. *)

val write : t -> Recorder.event -> unit
(** Render a [span_end] (as ["X"]) or any other event (as an ["i"]
    instant) onto the sink. No-op without a sink. *)
