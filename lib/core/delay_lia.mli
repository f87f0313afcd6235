(** Link delay inference — the paper's first extension (Section 8):
    "congested links usually have high delay variations; take multiple
    snapshots to learn the delay variances, reduce the first-order moment
    equations by removing links with small congestion delays, then solve
    for the delays of the remaining congested links."

    Delay measurements are directly linear in link delays, so Theorem 1
    applies verbatim to delay variances (the augmented matrix is the
    same). The static propagation component has zero variance and would
    be eliminated in Phase 2, so the first-order system is solved on
    {e baseline-subtracted} measurements: each path's baseline is its
    minimum over the learning window (the classic RTT baselining trick),
    leaving only the queueing excess, which is ~0 on un-congested links —
    the exact analogue of the loss setting. Phase 2 is a {!Plan} over the
    delay variances: the same rank reduction and normal equations as
    loss inference, solved by {!Plan.least_squares}. *)

type result = {
  variances : float array;  (** learnt delay variance per link *)
  queueing : float array;
      (** inferred mean queueing delay (ms) per link for the target
          snapshot; eliminated links get 0 *)
  kept : int array;
  removed : int array;
}

val baselines : Linalg.Matrix.t -> Linalg.Vector.t
(** Per-path minimum over the learning snapshots. *)

val infer :
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  result
(** Full two-phase inference on delay measurements (ms). Raises
    [Invalid_argument] on dimension mismatches, and [Failure] when
    {!Plan.make} does. *)

val congested : result -> threshold:float -> bool array
(** Links whose inferred queueing delay exceeds [threshold] ms. *)
