(** Monotonized process clock for telemetry timestamps.

    [Unix.gettimeofday] anchored at module-load time and clamped to a
    process-wide high-water mark, so successive readings never decrease
    even across domains (a stepped system clock shows up as a stall, not
    as negative span durations). Resolution is sub-microsecond. *)

val now_ns : unit -> int64
(** Nanoseconds since process start, monotonically non-decreasing. *)

val now_us : unit -> int64
(** {!now_ns} divided down to microseconds (the Chrome trace unit). *)

val seconds_since : int64 -> float
(** [seconds_since t0] is the elapsed time in seconds between a previous
    {!now_ns} reading [t0] and now. *)
