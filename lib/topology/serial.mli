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

    Lines may appear in any order after the header; blank lines and lines
    starting with [#] are ignored. *)

val to_string : Testbed.t -> string

val of_string : string -> Testbed.t
(** Raises [Failure] with a line-numbered message on malformed input. *)

val save : string -> Testbed.t -> unit
(** [save path testbed] writes the file atomically (via a temp file in the
    same directory). *)

val load : string -> Testbed.t
(** Raises [Sys_error] if unreadable, [Failure] if malformed; a malformed
    line is reported as [FILE:LINE: message]. *)
