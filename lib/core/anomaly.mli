(** Network anomaly detection from a few vantage points — the paper's
    second suggested extension (Section 8).

    The learning window gives every path an expected log transmission
    rate and a variance; a fresh snapshot is screened by standardizing
    each path's measurement against that baseline. Paths that deviate
    beyond a z-threshold are anomalous, and the anomalous set is localized
    to links with the same parsimonious-explanation machinery as the
    congested-link baselines. Because the per-path moments come from the
    same snapshots LIA already collects, detection is essentially free. *)

type model = {
  mean : float array;
      (** per-path baseline mean of [Y]; [nan] for a path with no
          baseline *)
  std : float array;  (** per-path baseline standard deviation (>= 1e-4) *)
}

val learn : Linalg.Matrix.t -> model
(** [learn y] from the learning window (rows = snapshots), each path
    over its cells that {!Quarantine.cell_valid} accepts: a missing cell
    costs one sample, not the baseline. A path with fewer than 2 usable
    cells has no baseline and is never flagged. The standard deviation
    is floored at [1e-4], so zero-variance paths do not fire on any
    noise. Raises [Invalid_argument] with fewer than two snapshots. *)

val anomalous_paths : model -> y_now:Linalg.Vector.t -> bool array
(** Paths whose measurement is more than 3 standard deviations {e below}
    baseline (losses only get worse). *)

val detect :
  model -> r:Linalg.Sparse.t -> y_now:Linalg.Vector.t -> bool array * bool array
(** [(anomalous_paths, suspect_links)] in one call: the suspects are the
    smallest consistent explanation of the anomalous paths ({!Scfs.infer};
    links on non-anomalous paths are exonerated). *)
