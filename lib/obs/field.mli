(** Structured values attached to log records and telemetry events,
    with the JSON fragments the sinks need to serialize them. *)

type t = Str of string | Int of int | Float of float | Bool of bool

val json_string : string -> string
(** JSON string literal: the body escaped (quotes, backslashes, control
    characters) and wrapped in double quotes. *)

val json_float : float -> string
(** [%.12g]: 12 significant digits, which does not round-trip every
    double ([0.1 +. 0.2] prints [0.3]); non-finite values become [null]
    (JSON has no inf/nan literals). *)

val to_text : t -> string
(** Unquoted rendering for the pretty sink. *)

val assoc_json : (string * t) list -> string
(** [{"k": v, ...}] in list order. *)
