(** Plain-text serialization of measurement campaigns.

    Format:
    {v
    netloss-measurements 1 <snapshots> <paths>
    <y_0,0> <y_0,1> ... <y_0,np-1>
    ...
    v}
    One row per snapshot of log path transmission rates (or delays, for
    the delay extension — the format is unit-agnostic).

    The exact grammar ([Topology.Scan] reads it, in one pass):
    - a line ends at ['\n']; it is trimmed of [' '], ['\t'], ['\r'] and
      ['\012'] (so CRLF line ends are accepted);
    - a trimmed line that is empty or starts with ['#'] is skipped, but
      still counts in line numbers;
    - inside a line, runs of [' '] separate tokens; a tab inside a line
      belongs to a token;
    - the first remaining line is the header, exactly four tokens; the
      two counts are read by [int_of_string] and must be [>= 0];
    - every later line is one row of exactly [<paths>] tokens, each read
      to the double [float_of_string] gives ([nan], [inf], [0x1p-3] and
      [1_000] are numbers); there must be exactly [<snapshots>] rows.

    Each cell is read in place into the matrix's storage
    ([Topology.Scan.next_float]): a plain decimal of at most 18
    significant digits whose value is neither subnormal nor infinite,
    such as every finite, normal [%.17g] cell {!to_string} writes, is
    converted exactly with no allocation; any other token goes through
    [float_of_string] itself. *)

val to_string : Linalg.Matrix.t -> string

val of_string : ?path:string -> ?strict:bool -> string -> Linalg.Matrix.t
(** Raises [Failure] on malformed input with a one-line
    ["<path>:<line>: ..."] diagnostic (bad header, row-count mismatch,
    ragged row with the expected width, unparsable number; an empty file
    is ["<path>: empty measurement file"]). [path] names the source in
    the message; default ["<string>"]. Line numbers refer to the original
    text, counting skipped blank/comment lines. A wrong row count is
    reported before any row's error, and a row's width before its cells.

    With [strict] (the default) each value must also be a valid log
    success rate — finite and [<= 0] — so NaN, [inf], and positive
    entries (success rate above 1) are rejected with the same
    [file:line] diagnostics. Pass [~strict:false] for quarantine-aware
    ingest paths that repair such cells downstream ({!Core.Quarantine});
    permissive loading still rejects structurally malformed files. *)

val save : string -> Linalg.Matrix.t -> unit

val load : ?strict:bool -> string -> Linalg.Matrix.t
(** {!of_string} on the file's contents, with [~path] set to the file
    name. *)
