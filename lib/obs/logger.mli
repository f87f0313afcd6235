(** Leveled structured logger.

    A record is a level, a message, and optional {!Field.t} fields,
    rendered as one timestamp-free line ([[info ] msg k=v ...]) so cram
    tests and diff-based triage stay deterministic. With no sink
    installed, lines go to a shared stderr sink. A logger whose level is
    [None] is disabled: a record costs one branch. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

val level_of_string : string -> (level option, string) result
(** Accepts [off|none|debug|info|warn|warning|error] (case-insensitive);
    [Ok None] means disabled. *)

type t

val default : t
(** The process-wide logger. Starts disabled (level [None]). *)

val set_level : t -> level option -> unit

val level : t -> level option

val set_sink : t -> Sink.t option -> unit
(** Install an output sink; [None] reverts to stderr. *)

val info : ?fields:(string * Field.t) list -> t -> string -> unit
(** Emit if [Info] is at or above the logger's level. *)

val warn : ?fields:(string * Field.t) list -> t -> string -> unit
(** Emit if [Warn] is at or above the logger's level. *)
