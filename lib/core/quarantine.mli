(** Validation and quarantine of raw measurement snapshots.

    The ingest side of graceful degradation: before any snapshot matrix
    reaches the variance estimator it is scrubbed cell by cell and row
    by row, so that corrupted or incomplete measurements surface as a
    typed {!report} instead of NaN propagating silently into the loss
    estimates.

    {b Cell semantics.} Measurements are log success rates, so a valid
    cell is finite and [<= 0] (success rate in (0,1]). NaN marks a
    {e missing} measurement (a dropped probe). Anything else — positive
    values (success rate > 1), infinities — is {e corrupt}; corrupt
    cells are counted and neutralized to NaN, i.e. downgraded to
    missing, because a corrupted value carries no usable information.
    {!cell_valid} is the one rule in the library: every estimator reads
    a cell it rejects as missing, never as data.

    {b Row semantics.} A snapshot row is quarantined (excluded from the
    output matrix) when every cell is missing, when more than
    [max_missing_fraction] of its cells are missing, or when it is a
    bit-for-bit duplicate of an earlier kept row (replayed snapshots
    would otherwise silently double-weight their sampling period).

    {b Determinism.} [scrub] is sequential and pure: the same input
    yields the same report and the same output bits. On a fully clean
    matrix the output is a bit-for-bit copy of the input and the report
    satisfies {!clean}, which is what keeps the graceful pipeline
    bit-identical to the seed pipeline when no faults are present.

    Counters [quarantine_rows_total], [quarantine_cells_total] and
    [quarantine_duplicates_total] and the gauge
    [ingest_dropped_snapshots] on [Obs.Metrics.default] track scrub
    outcomes for [--metrics] dumps. *)

type reason =
  | All_missing  (** every cell missing or corrupt *)
  | Excess_missing of { missing : int; total : int }
      (** more than the allowed fraction of cells missing *)
  | Duplicate_of of int
      (** bitwise duplicate of the given earlier kept row (original
          numbering) *)

type report = {
  total : int;  (** rows in the input matrix *)
  kept : int array;  (** original indices of surviving rows, ascending *)
  quarantined : (int * reason) list;
      (** quarantined rows, ascending original index *)
  missing_cells : int;  (** NaN cells remaining in kept rows *)
  corrupt_cells : int;
      (** out-of-range cells neutralized to NaN, over all rows *)
}

val reason_to_string : reason -> string

val cell_valid : float -> bool
(** [cell_valid x]: [x] is finite and [<= 0], a usable log success
    rate. A learning cell that fails it is skipped like NaN; a target
    cell that fails it is excluded by {!restrict_target}. *)

val clean : report -> bool
(** No quarantined rows, no missing cells, no corrupt cells. *)

val summary : report -> string
(** The row accounting in one line, e.g. ["kept 9/12 snapshots
    (quarantined 3: 1 all-missing, 1 excess-missing, 1 duplicate)"], or
    ["kept 12/12 snapshots"]. Each reader words the cell counts itself. *)

val scrub :
  ?max_missing_fraction:float -> Linalg.Matrix.t -> Linalg.Matrix.t * report
(** [scrub y] classifies every cell of the [m × n_p] snapshot matrix
    [y] and returns the surviving rows (in input order, corrupt cells
    neutralized to NaN) plus the report. [max_missing_fraction]
    (default [0.5]) is the largest tolerated fraction of missing cells
    per row; rows strictly above it are quarantined. *)

type vector_report = {
  valid : int array;  (** indices of valid entries, ascending *)
  v_missing : int;
  v_corrupt : int;
}

val scrub_vector : Linalg.Vector.t -> Linalg.Vector.t * vector_report
(** Cell-level scrub of a single measurement vector: corrupt entries are
    neutralized to NaN and the indices of valid entries returned. No
    row-level policy applies. *)

val unusable_row : vector_report -> reason option
(** The row rule of {!scrub} at its default fraction, for one snapshot
    scrubbed by {!scrub_vector}: [Some All_missing] when no cell is
    valid, [Some (Excess_missing _)] when more than half are invalid,
    [None] when the row is usable. *)

val restrict_target :
  Linalg.Sparse.t ->
  Linalg.Vector.t ->
  Linalg.Sparse.t * Linalg.Vector.t * vector_report
(** [restrict_target r y_now] cuts the system [y_now = r x] down to the
    paths whose target cell is valid: the rows of [r] and the cells of
    [y_now] at [report.valid], in ascending order, with the report
    {!scrub_vector} would give. When every cell is valid it returns [r]
    and [y_now] themselves. Every estimator that solves against a target
    calls it; [y_now] must have one entry per row of [r]. *)
