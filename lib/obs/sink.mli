(** Pluggable line-oriented output sinks for the logger and the
    telemetry outputs. Every sink serializes writes behind an internal mutex, so
    producers on different pool domains never interleave partial lines. *)

type t

val write : t -> string -> unit
(** Append one line (the newline is added by the sink). *)

val flush : t -> unit

val close : t -> unit
(** Flush and release the underlying resource. Closing a memory or
    stderr sink is a flush-only no-op. *)

val file : string -> t
(** Truncate-and-write sink on a fresh file (JSONL conventions are the
    caller's: the trace output writes Chrome trace events, the flight
    recorder and the convergence log JSON records). *)

val stderr_lines : unit -> t
(** Line sink on stderr; {!close} leaves the channel open. *)

val memory : unit -> t * (unit -> string list)
(** In-memory sink for tests; the closure returns the lines written so
    far, in write order. *)
