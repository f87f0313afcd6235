(** The [--convergence] output: the event stream's [solver_iter] events
    rendered as flat JSONL.

    {!Event.emit} routes [solver_iter] here while a sink is installed.
    Each line is one iterative-solver iteration:
    [{"solver": "cgls", "solve": 3, "iteration": 17, "relres": 1.2e-7,
    "phase": "phase2", "precond": "block_jacobi"}] — the event's name
    under ["solver"], then its fields (the trailing ones are the
    caller-supplied solve context). Iteration indices within one
    [solve] id are strictly increasing from 1. *)

type t

val default : t
(** The process-wide convergence output. Starts with no sink; the CLI
    installs one under [--convergence]. *)

val enabled : t -> bool

val set_sink : t -> Sink.t option -> unit
(** Install (or remove, with [None]) the output sink, closing any
    previous one. *)

val flush : t -> unit

val write : t -> Recorder.event -> unit
(** Render one [solver_iter] event as a line. No-op without a sink. *)
