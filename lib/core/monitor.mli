(** Streaming LIA: a sliding window of snapshots with on-demand inference.

    Deployments collect snapshots continuously; this wrapper keeps the
    last [window] measurements, re-learns variances when asked, and runs
    Phase 2 against any fresh snapshot — the operational mode of the
    PlanetLab experiment (learn on the previous [m] snapshots, diagnose
    the next). Learnt variances are cached together with the {!Plan}
    that serves them, and both are dropped whenever the window content
    changes. *)

type t

val create : r:Linalg.Sparse.t -> window:int -> t
(** Raises [Invalid_argument] when [window < 2]. *)

val observe : t -> Linalg.Vector.t -> unit
(** Appends a snapshot measurement (log path transmission rates), evicting
    the oldest when the window is full. Raises [Invalid_argument] on a
    length mismatch. *)

type observation =
  | Accepted  (** every measurement was a valid log success rate *)
  | Accepted_degraded of { missing : int; corrupt : int }
      (** buffered, but with that many cells neutralized to missing *)
  | Rejected of Quarantine.reason
      (** not buffered: too little of the snapshot was usable *)

val observation_to_string : observation -> string

val observe_checked : t -> Linalg.Vector.t -> observation
(** Validating ingest through {!Quarantine.scrub_vector}: NaN cells are
    missing, other cells that {!Quarantine.cell_valid} rejects are
    corrupt (neutralized to missing after being counted). A snapshot
    that {!Quarantine.unusable_row} rejects (more than half of its cells
    invalid, or all of them) never enters the window, so a faulty
    collector cannot push the monitor's variance estimates off a cliff.
    Accepted snapshots invalidate the cache exactly like {!observe}.
    Raises [Invalid_argument] on a length mismatch only. *)

val size : t -> int
(** Snapshots currently held. *)

val ready : t -> bool
(** True once the window is full. *)

val window_matrix : t -> Linalg.Matrix.t
(** The current window as a snapshot matrix (oldest row first). *)

val variances : t -> Linalg.Vector.t
(** Learnt link variances over the current window (cached). Raises
    [Failure] when fewer than two snapshots are held. *)

val infer : t -> y_now:Linalg.Vector.t -> Lia.result
(** Phase 2 on [y_now] through the cached plan over {!variances}: the
    first call after a window change builds it ({!Plan.make}), later
    calls only solve. *)

val infer_checked : t -> y_now:Linalg.Vector.t -> Lia.checked
(** {!Lia.infer_checked} over the current window: never raises on data
    faults, returning a typed verdict instead; an under-filled window
    (fewer than 2 snapshots) is a [Refused] verdict, not an error. *)

val anomaly_model : t -> Anomaly.model
(** Per-path baseline over the current window. *)
