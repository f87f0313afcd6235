(** Multi-snapshot measurement campaigns.

    The LIA algorithm consumes [m] snapshots to learn variances and one
    further snapshot on which it infers loss rates; this module runs such
    campaigns and packages the log-measurement matrix [Y].

    Congestion status evolves across snapshots according to a
    {!status_dynamics}. The paper's simulations treat congestion as a
    stable link property over the measurement window ([Static] — this is
    what makes the learnt variances predictive of the target snapshot),
    while its PlanetLab measurements show real congestion episodes lasting
    about one snapshot ([Markov] with low persistence approximates that
    regime; [Iid] is the memoryless extreme). *)

type status_dynamics =
  | Static  (** drawn once, fixed for the whole campaign *)
  | Iid  (** redrawn independently every snapshot *)
  | Markov of float
      (** the float is P(stay congested); the congested→good transition is
          set so the stationary congestion probability stays [p] *)
  | Hetero of { stay : float; active : float }
      (** heterogeneous links, the realistic Internet regime: a fraction
          [p] of links (drawn once) is {e trouble-prone} and alternates
          congestion episodes with persistence [stay] and stationary
          activity [active]; the rest never congests. Chronic identity of
          the bad links is what the paper's PlanetLab data shows and what
          makes learnt variances predictive across snapshots. *)

type run = {
  snapshots : Snapshot.t array;
  y : Linalg.Matrix.t;  (** row [l] = the [y] vector of snapshot [l] *)
}

val run :
  ?dynamics:status_dynamics ->
  Nstats.Rng.t ->
  Snapshot.config ->
  Linalg.Sparse.t ->
  count:int ->
  run
(** [run rng config r ~count] generates [count] snapshots (default
    dynamics [Static]). Raises [Invalid_argument] when [count <= 0] or the
    [Markov] persistence is outside [0, 1). *)

val split_learning : run -> learning:int -> Linalg.Matrix.t * Snapshot.t
(** [(y_first, target)] where [y_first] holds the first [learning] rows
    and [target] is snapshot [learning] (0-based) — the "(m+1)-th
    snapshot" of the paper. Requires [learning < count]. *)

val mean_variance_per_path : run -> (float * float) array
(** Per path: sample mean and variance of the measured {e loss} rates
    [1 - φ̂] across the run's snapshots (the quantities scattered in
    Figure 3). *)
