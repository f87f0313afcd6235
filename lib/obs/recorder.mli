(** Flight recorder: the in-memory tail of the event stream.

    Every event {!Event.emit} routes here (all but the pool's
    [pool.task] spans) lands in a fixed-capacity ring, one ring per
    domain shard, dropping that ring's oldest event when full. The tail
    is written out as JSONL when something goes wrong: on demand, on a
    [Refused] health verdict or solver non-convergence (the core layers
    call {!auto_dump}), and at process exit once a dump path is
    configured. A failed run nobody was watching thereby explains
    itself after the fact.

    {b Overhead contract.} Against a disabled recorder an event costs
    one branch; enabled, one mutex-protected array store. Recording
    never reads or mutates the instrumented computation: estimates are
    bit-for-bit identical with the recorder on or off.

    {b Determinism contract.} Events merge by a stable sort on
    [(ts_us, domain, seq)] — a pure function of the ring contents. The
    multiset of events a jobs-invariant computation records is itself
    jobs-invariant; which [domain] recorded an event is scheduling, so
    treat it as a label, not a key. *)

type event = {
  seq : int;
      (** per-ring sequence number, strictly increasing from 0; assigned
          by the ring, [0] on events that never entered one *)
  domain : int;  (** id of the emitting domain *)
  ts_us : int64;  (** {!Clock} microseconds when the event was emitted *)
  kind : string;
      (** event class: ["span_begin"], ["span_end"], ["instant"],
          ["solver_iter"], ["solver_done"], ["quarantine"], ["verdict"] *)
  name : string;  (** span/solver/probe name *)
  fields : (string * Field.t) list;
}
(** The one event type of the telemetry stream: the recorder stores it,
    the [--trace] and [--convergence] outputs render it, and
    {!Report.decode} reads every output back into it. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh recorder, disabled, with [capacity] slots {e per ring}
    (default 4096; there are 16 rings). Raises [Invalid_argument] when
    [capacity < 1]. *)

val default : t
(** The recorder {!Event.emit} feeds. Starts disabled; the CLI enables
    it under [--flight-recorder]. *)

val enable : t -> unit

val disable : t -> unit

val enabled : t -> bool

val record : t -> event -> unit
(** Append one event to the ring of its [domain]. Disabled: one branch.
    The library's probes go through {!Event.emit}, which stamps the
    event and calls this. *)

val events : t -> event list
(** Merged snapshot of every ring, oldest first (stable sort on
    [(ts_us, domain, seq)]). *)

val recorded : t -> int
(** Events ever recorded (including dropped ones). *)

val dropped : t -> int
(** Events lost to ring rotation so far. *)

val reset : t -> unit
(** Empty every ring (counters included). The dump path is kept. *)

val dump : t -> reason:string -> Sink.t -> unit
(** Write a JSONL dump: one header object
    ([{"kind": "recorder_dump", "reason": ..., "events": N, "dropped":
    D, "capacity": C}]) followed by one event object per line
    ([kind]/[name]/[domain]/[seq]/[ts_us] and the fields under
    ["args"]). *)

val set_dump_path : t -> string option -> unit
(** Configure where {!auto_dump} writes. The first non-[None] path also
    registers an [at_exit] hook that dumps (reason ["exit"]) if the
    recorder is still enabled — each dump truncates the file, so the
    exit dump supersedes earlier emergency dumps with a superset of
    their events. *)

val auto_dump : t -> reason:string -> unit
(** Dump to the configured path (truncating), or do nothing when no
    path is set. Called by the library on [Refused] verdicts and solver
    non-convergence. *)
