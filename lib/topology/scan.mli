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

    Integers are read as [int_of_string] reads them, and floats to the
    double [float_of_string] gives ({!next_float}). Diagnostics take the
    form [PATH:LINE: message]. *)

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

val next_float : t -> float array -> int -> bool
(** [next_float c a k] moves the token cursor to the next token as
    {!next_token} does and writes it into [a.(k)], read to the double
    [float_of_string] gives; [false] (and [a] untouched) at the line's
    end. Raises [Failure] on the tokens [float_of_string] rejects, with
    the cursor on the token.

    The token is read in the same pass that finds its end, and a
    decimal [-]D+[.D+][(e|E)[+|-]D{1,5}] of at most 18 significant
    digits (every cell [%.17g] writes is one) is converted exactly in
    place, with no allocation: by one multiplication or division by an
    exact power of ten when the digits are below 2{^53} and the power of
    ten is at most 22 away from 0 (Clinger), otherwise by one
    64 x 128-bit product with the truncated mantissa of a power of ten
    in [\[10{^-348}, 10{^347}\]] (Eisel-Lemire, as Go's [strconv]). Any
    other token ([nan], [inf], hexadecimal, [_], a leading [+], [.5],
    [5.], a tab), more digits, a subnormal or infinite result, and the
    ties and wide-error cases that one product leaves open go to
    [float_of_string] on the token. *)

val pow10 : int -> int64 * int64
(** [pow10 e] is the reader's table entry for 10{^e}, for [e] in
    [\[-348, 347\]]: the high and low words of the first 128 bits of its
    binary mantissa, truncated, with the high word's top bit set. The
    entries are computed once per process from exact integer arithmetic;
    this accessor lets them be checked. *)

val error : ?line:int -> t -> string -> exn
(** [Failure "PATH:LINE: msg"], at the current line unless [line] is
    given. *)
