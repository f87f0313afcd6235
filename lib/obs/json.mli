(** Minimal JSON reader for the telemetry this library writes.

    Parses RFC 8259 JSON into a plain variant; used by the [report]
    renderer to read back recorder dumps, convergence streams, and trace
    events without an external dependency. Numbers are all [float]s
    (JSON has only one number type); [\u] escapes decode to UTF-8, but
    surrogate pairs are not recombined — the writers never emit them. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { offset : int; message : string }

val of_string : string -> t
(** Parse one complete JSON value. Raises {!Parse_error} (with a
    character offset) on anything else, including trailing input. *)

val of_string_opt : string -> t option

(** {2 Accessors} — each returns [None] on a shape mismatch, so lookups
    compose with [Option.bind]. *)

val member : string -> t -> t option
(** Field of an [Obj]; [None] for missing keys and non-objects. *)

val to_string_opt : t -> string option

val to_float_opt : t -> float option

val to_int_opt : t -> int option
(** [Some] only for numbers with integral values. *)
