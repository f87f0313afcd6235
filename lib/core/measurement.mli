(** The shared estimator input record — one call shape for every loss
    estimator in the zoo.

    Every backend behind {!Estimator} consumes the same bundle: the
    reduced routing matrix, the multi-snapshot learning measurements, the
    target snapshot to diagnose, and the probing budget. The full reduced
    topology rides along for the tree-aware estimators, which derive the
    virtual-link tree from it.

    Measurements are {e log path transmission rates}, exactly the [y]
    convention of {!Lia.infer}: row [l] of [y_learn] is snapshot [l],
    entry [i] is [log φ̂ᵢ]. Missing cells are NaN, as produced by
    {!Netsim.Faults}; which cells are usable is {!Quarantine.cell_valid}'s
    call, for every backend. *)

type t = {
  r : Linalg.Sparse.t;  (** reduced routing matrix, [n_p × n_c] *)
  routing : Topology.Routing.reduced option;
      (** full reduced topology, when known — required by tree-aware
          backends (MINC, Fourier) *)
  y_learn : Linalg.Matrix.t;  (** [m × n_p] learning snapshots *)
  y_now : Linalg.Vector.t;  (** the target snapshot ([n_p]) *)
  probes : int;  (** probes per snapshot ([S]), for count-based backends *)
}

val make :
  ?routing:Topology.Routing.reduced ->
  ?probes:int ->
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  unit ->
  t
(** [make ~r ~y_learn ~y_now ()] validates dimensions ([y_learn] and
    [y_now] must have one column/entry per path of [r]; [probes]
    positive, default 1000) and packs the record. Raises
    [Invalid_argument] otherwise. *)

val delivered : probes:int -> Linalg.Vector.t -> int array
(** Per-path delivery counts reconstructed from a target snapshot:
    [round (probes · exp y)], clamped to [[0, probes]]; a non-finite
    measurement counts as 0 delivered. This is the inverse of the
    simulator's [y = log (received / probes)] and exact on clean
    simulated data. The [em] backend reads it on the target restricted
    by {!Quarantine.restrict_target}. *)
