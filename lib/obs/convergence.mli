(** Per-iteration solver convergence stream (JSONL).

    Each line is one iterative-solver iteration as a flat JSON object:
    [{"solver": "cgls", "solve": 3, "iteration": 17, "relres": 1.2e-7,
    "phase": "phase2", "precond": "block_jacobi"}] — the trailing fields
    are the caller-supplied solve context. Iteration indices within one
    [solve] id are strictly increasing from 1.

    The stream is independent of the {!Recorder} and the [lia_cgls_*]
    histograms: solvers feed all three, each behind its own enable
    check, and none of them reads the computation back — estimates are
    bit-for-bit identical with the stream on or off. *)

type t

val default : t
(** The process-wide stream the solvers emit to. Starts with no sink;
    the CLI installs one under [--convergence]. *)

val create : unit -> t

val enabled : t -> bool

val set_sink : t -> Sink.t option -> unit
(** Install (or remove, with [None]) the output sink, closing any
    previous one. *)

val close : t -> unit

val flush : t -> unit

val emit :
  t ->
  solver:string ->
  solve:int ->
  iteration:int ->
  relative_residual:float ->
  context:(string * Field.t) list ->
  unit
(** Write one iteration line. No-op without a sink. *)
