(** A fixed-size domain pool with deterministic parallel iteration.

    A pool of [jobs] is backed by [jobs - 1] worker domains spawned once
    and reused for the life of the process; the submitting domain works
    alongside them, so [jobs] bounds the number of simultaneously active
    domains. Work arrives on a queue guarded by a [Mutex.t] / [Condition.t]
    pair. Every entry point falls back to plain in-order execution when
    [jobs = 1], when the work is a single block, or when called from
    inside a pool task (nested parallelism never deadlocks — inner calls
    run sequentially on the worker that issued them).

    Determinism contract: the iteration helpers below schedule work in
    blocks computed by {!Chunk.block_count} from the problem size alone.
    A kernel that (a) writes each output slot from exactly one block, or
    (b) merges per-block partials in block index order, produces
    bit-for-bit identical results for every [jobs] value. *)

type t

type stats = {
  tasks_run : int;  (** blocks actually executed through this pool *)
  blocks_scheduled : int;  (** blocks pushed onto this pool's queue *)
  sequential_fallbacks : int;
      (** sections handed to this pool that ran inline instead (single
          block, or issued from inside a pool task) *)
  queue_wait_p50 : float;
      (** median seconds between block enqueue and execution start, read
          back from the process-wide [pool_queue_wait_seconds] histogram
          (bucket-interpolated, see {!Obs.Metrics.histogram_quantile});
          [nan] until the metrics registry has recorded an enqueue *)
  queue_wait_p95 : float;
  queue_wait_p99 : float;
}

val stats : t -> stats
(** A consistent-enough snapshot of this pool's lifetime counters (each
    field is an atomic read; no lock is taken). Sections that fall back
    to sequential before a pool is resolved — [?jobs] calls with
    [jobs = 1] — are counted only by the process-wide
    [pool_sequential_fallbacks_total] metric, not here. The queue-wait
    quantiles come from the process-wide histogram (all pools combined)
    and need {!Obs.Metrics.default} enabled while the blocks ran.

    Telemetry note: the pool also feeds the process-wide
    {!Obs.Metrics.default} registry ([pool_tasks_total],
    [pool_blocks_scheduled_total], [pool_queue_wait_seconds],
    [pool_worker_busy_ns_total], [pool_worker_idle_ns_total],
    [pool_sequential_fallbacks_total], [pool_nested_fallbacks_total])
    and, when {!Obs.Trace.default} has a sink, emits one [pool.task]
    span per executed block through {!Obs.Event.span}; that span goes to
    the trace only (on the running domain's row), never to the flight
    recorder, whose event multiset must not depend on [jobs]. All probes are
    single-branch no-ops while the registry is disabled. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] capped at 8 — the default for
    every [?jobs] argument in the library and for the CLI [--jobs] flag. *)

val create : jobs:int -> t
(** A fresh pool backed by [jobs - 1] worker domains. Raises
    [Invalid_argument] when [jobs < 1]. Prefer {!get}, which reuses
    pools, unless the pool's lifetime must be controlled (tests). *)

val size : t -> int
(** The [jobs] the pool was created with. *)

val get : jobs:int -> t
(** The process-wide pool for this [jobs] value, created on first use and
    reused by every later call — repeated parallel sections pay the
    domain-spawn cost once. Raises [Invalid_argument] when [jobs < 1]. *)

val shutdown : t -> unit
(** Stops and joins the pool's workers; subsequent use of the pool raises
    [Invalid_argument]. Only needed for pools from {!create}: pools from
    {!get} live until process exit (idle workers block on the queue's
    condition variable and cost nothing). *)

val for_blocks : ?jobs:int -> ?pool:t -> int -> (int -> unit) -> unit
(** [for_blocks n f] runs [f b] for every block index [b] in [0 .. n-1],
    distributing blocks over the pool. [?jobs] (default {!default_jobs})
    selects the shared pool via {!get}; [?pool] overrides it with an
    explicitly created pool. All blocks run to completion even if some
    raise; the exception of the lowest-numbered failing block is then
    re-raised in the caller. In the sequential fallback blocks run in
    increasing order and the first exception propagates immediately. *)

val parallel_for : ?jobs:int -> ?min_block:int -> n:int -> (int -> unit) -> unit
(** [parallel_for ~n f] runs [f i] for [i] in [0 .. n-1], cut into
    {!Chunk.block_count}[ ~min_block n] blocks of consecutive indices.
    Within a block, indices run in increasing order. Safe whenever
    distinct [i] touch distinct state. *)

val map_reduce :
  ?jobs:int -> blocks:int -> map:(int -> 'a) -> reduce:('a -> 'a -> 'a) ->
  init:'a -> 'a
(** [map_reduce ~blocks ~map ~reduce ~init] computes
    [reduce (... (reduce (reduce init (map 0)) (map 1)) ...) (map (blocks-1))]:
    the maps run in parallel, the fold is performed by the caller in
    block index order, so the result is identical for every [jobs]. *)

(** Reusable accumulation buffers for parallel reductions whose merge is
    order-insensitive (e.g. exact integer counts held in floats). A task
    borrows a buffer, accumulates into it, and returns it; at most one
    buffer exists per concurrently running task, and {!Buffers.all}
    exposes every buffer ever handed out for the final merge. *)
module Buffers : sig
  type 'a t

  val create : (unit -> 'a) -> 'a t
  (** [create make] allocates buffers lazily with [make]. *)

  val borrow : 'a t -> 'a
  (** A free buffer, or a fresh one if none is free. Thread-safe. *)

  val return : 'a t -> 'a -> unit
  (** Hand a borrowed buffer back for reuse. Thread-safe. *)

  val all : 'a t -> 'a list
  (** Every buffer ever created, for the final merge. Only meaningful
      once all borrowing tasks have completed. *)
end
