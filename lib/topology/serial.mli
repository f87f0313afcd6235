(** Plain-text serialization of testbeds.

    A stable line-oriented format so topologies can be generated once,
    shared, and re-used across tool invocations:

    {v
    netloss-testbed 1
    node <id> host|router <as-id>
    edge <src> <dst>
    beacon <id>
    dest <id>
    v}

    The exact grammar ({!Scan} reads it, in one pass):
    - a line ends at ['\n']; it is trimmed of [' '], ['\t'], ['\r'] and
      ['\012'] (so CRLF line ends are accepted);
    - a trimmed line that is empty or starts with ['#'] is skipped, but
      still counts in line numbers;
    - inside a line, runs of [' '] separate tokens; a tab inside a line
      belongs to a token;
    - every other line is exactly one of the five forms above; the
      numbers are read as [int_of_string] reads them ([0x10], [1_000]
      and [+3] are accepted);
    - lines may come in any order: the header must appear somewhere, the
      node ids must be [0 .. n - 1], each once, the edges must be valid
      for {!Graph.create} and the beacons and destinations must be
      nodes. *)

val to_string : Testbed.t -> string

val of_string : string -> Testbed.t
(** Raises [Failure "<string>:LINE: message"] on a malformed line, in
    file order. After the last line, raises [Failure] on a missing header
    or ids that are not dense, then {!Graph.create}'s and
    {!Testbed.validate}'s [Invalid_argument]. *)

val save : string -> Testbed.t -> unit
(** [save path testbed] writes the file atomically (via a temp file in the
    same directory). *)

val load : string -> Testbed.t
(** {!of_string} on the file's contents, a malformed line reported as
    [FILE:LINE: message]. Raises [Sys_error] if unreadable. *)
