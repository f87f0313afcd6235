(** Metrics registry: counters, gauges, and fixed-bucket histograms with
    per-domain sharded accumulators.

    {b Overhead contract.} Every metric carries its registry's enable
    flag: a probe ({!incr}, {!add}, {!set}, {!observe}, {!time}) against
    a disabled registry is one load and one branch — no clock read, no
    shared-cache-line traffic — so instrumentation can stay compiled into
    the hot kernels. {!default} starts disabled; the CLI enables it when
    [--metrics] is given.

    {b Determinism contract.} Counter cells and histogram bucket cells
    are integers sharded by domain id and merged by integer summation, so
    their merged values are independent of domain scheduling and of merge
    order. Histogram sums are floats merged in shard index order; the
    merge is deterministic for fixed shard contents, but which shard an
    observation landed in depends on which domain made it. Probes never
    affect the instrumented computation itself. *)

type t
(** A registry. Metrics are owned by exactly one registry. *)

type counter
type gauge
type histogram

val create : ?on:bool -> unit -> t
(** Fresh registry, enabled unless [~on:false]. *)

val default : t
(** The process-wide registry the library's built-in probes target.
    Starts {e disabled}. *)

val enable : t -> unit

val disable : t -> unit

val enabled : t -> bool

(** {1 Registration}

    Metric names must match [[a-z0-9_]+]. Registering an existing name
    with the same metric type returns the existing metric; with a
    different type it raises [Invalid_argument]. Registration is
    thread-safe. *)

val counter : t -> ?help:string -> string -> counter

val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are strictly increasing upper bucket edges (an implicit
    [+Inf] overflow bucket is always appended). Default: powers of ten
    from [1e-6] to [10] — latency seconds. *)

(** {1 Probes} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** Counters are integer-valued; track elapsed time in integer
    nanoseconds rather than float seconds to keep merges exact. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Adds [x] to the first bucket whose upper edge is [>= x] (Prometheus
    inclusive-["le"] convention) and to the histogram sum. *)

val time : histogram -> (unit -> 'a) -> 'a
(** Run the thunk and {!observe} its duration in seconds; on a disabled
    registry this is the bare thunk call behind one branch. *)

(** {1 Reads} *)

val counter_value : counter -> int

val histogram_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts, the overflow bucket last. *)

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val histogram_quantile : histogram -> float -> float
(** [histogram_quantile h q] estimates the [q]-quantile ([0 ≤ q ≤ 1])
    of the observed distribution from the bucket counts, interpolating
    linearly within the bucket that holds rank [q·count] — the
    Prometheus [histogram_quantile()] estimate, so accuracy is bounded
    by bucket width. The first bucket interpolates from a lower edge of
    0; a quantile landing in the overflow bucket reports the largest
    finite edge (the Prometheus clamp). [nan] when the histogram is
    empty; raises [Invalid_argument] on [q] outside [0, 1]. *)

val names : t -> string list
(** Registered names in registration order. *)

val reset : t -> unit
(** Zero every metric (tests and overhead baselines). *)

val dump : t -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] comments,
    cumulative [_bucket{le="..."}] lines, [_sum]/[_count] per
    histogram. *)
