(** A cursor over a line-oriented text document: the one scanner behind
    {!Serial} (testbed files) and [Netsim.Trace_io] (measurement files).

    It makes a single pass over the string and builds no line or token
    list. The grammar it reads:
    - a line ends at ['\n'] or at the end of the string; lines are
      numbered from 1, and every line counts;
    - each line is trimmed of the bytes [String.trim] drops: [' '],
      ['\t'], ['\r'] and ['\012'] (so CRLF line ends are accepted);
    - a trimmed line that is empty or starts with ['#'] is skipped;
    - inside a line, [' '] is the only separator: runs of spaces
      separate tokens, and any other byte (a tab included) belongs to a
      token.

    Diagnostics take the form [PATH:LINE: message]. *)

type t

val create : path:string -> string -> t
(** A cursor before the first line of the string; [path] names the
    source in diagnostics. *)

val next_line : t -> bool
(** Moves to the next line that is neither blank nor a comment, with the
    token cursor at its start; [false] at the end of the string. *)

val line : t -> int
(** 1-based number of the current line. *)

val line_text : t -> string
(** The current line, trimmed. *)

val fields : t -> int
(** Number of tokens on the current line. The first four stay readable
    through {!field}, {!field_is} and {!int_field}, numbered from 0. *)

val field : t -> int -> string

val field_is : t -> int -> string -> bool
(** [field_is c i s] compares field [i] with [s] in place. *)

val int_field : t -> int -> int
(** Field [i] as an integer. A plain decimal of at most 18 digits is read
    in place; any other token goes through [int_of_string], so both
    accept the same tokens. Raises [Failure] on the tokens
    [int_of_string] rejects. *)

val next_token : t -> bool
(** Moves the token cursor to the next token of the current line;
    [false] at the line's end. *)

val token : t -> string
(** The token under the cursor. *)

val float_token : t -> float
(** [float_of_string] on the token under the cursor (kept for exact
    [%.17g] round trips). Raises [Failure] where it does. *)

val error : ?line:int -> t -> string -> exn
(** [Failure "PATH:LINE: msg"], at the current line unless [line] is
    given. *)
