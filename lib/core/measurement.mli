(** The shared estimator input record — one call shape for every loss
    estimator in the zoo.

    Every backend behind {!Estimator} (and the record-shaped entry points
    of {!Em_tomography} and {!Mils}) consumes the same bundle: the
    reduced routing matrix, the multi-snapshot learning measurements, the
    target snapshot to diagnose, and the probing budget. Optional context
    rides along for backends that need more than the matrix view: the
    full reduced topology (tree-aware estimators derive the virtual-link
    tree from it) and precomputed Phase-1 variances (so a variance
    learnt once can be served against many targets).

    Measurements are {e log path transmission rates}, exactly the [y]
    convention of {!Lia.infer}: row [l] of [y_learn] is snapshot [l],
    entry [i] is [log φ̂ᵢ]. Missing or corrupt cells are NaN, as produced
    by {!Netsim.Faults} and tolerated by the quarantine-aware paths. *)

type t = {
  r : Linalg.Sparse.t;  (** reduced routing matrix, [n_p × n_c] *)
  routing : Topology.Routing.reduced option;
      (** full reduced topology, when known — required by tree-aware
          backends (MINC, Fourier) *)
  y_learn : Linalg.Matrix.t;  (** [m × n_p] learning snapshots *)
  y_now : Linalg.Vector.t;  (** the target snapshot ([n_p]) *)
  probes : int;  (** probes per snapshot ([S]), for count-based backends *)
  variances : Linalg.Vector.t option;
      (** precomputed per-link variances; [None] = learn from [y_learn] *)
}

val make :
  ?routing:Topology.Routing.reduced ->
  ?variances:Linalg.Vector.t ->
  ?probes:int ->
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  unit ->
  t
(** [make ~r ~y_learn ~y_now ()] validates dimensions ([y_learn] and
    [y_now] must have one column/entry per path of [r]; [variances] one
    entry per column; [probes] positive, default 1000) and packs the
    record. Raises [Invalid_argument] otherwise. *)

val delivered : t -> int array
(** Per-path delivery counts reconstructed from the target snapshot:
    [round (probes · exp y_now)], clamped to [[0, probes]]; non-finite
    measurements count as 0 delivered. This is the inverse of the
    simulator's [y = log (received / probes)] and exact on clean
    simulated data. *)

val valid_target : t -> int array
(** Indices of the target paths whose measurement is finite, ascending —
    the rows a NaN-intolerant backend should restrict itself to. *)
