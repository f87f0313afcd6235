(** The Loss Inference Algorithm (LIA) — Section 5.3 of the paper.

    Phase 1 learns the link variances from [m] snapshots by solving the
    second-moment system [Σ̂* = A v]. Phase 2 sorts links by variance,
    eliminates the quietest columns from the routing matrix until it has
    full column rank, solves [Y = R* X*] on the target snapshot, and
    assigns transmission rate 1 (loss 0) to the eliminated links.

    Both entry points build a single-use {!Plan} and solve one
    measurement through it. Learnt variances reach a diagnosis only
    through a plan: a serving loop that diagnoses many snapshots against
    the same routing matrix and variances calls [Plan.make] once and
    amortizes the factorization across [Plan.solve] /
    [Plan.solve_batch] calls. *)

type result = Plan.result = {
  variances : float array;
      (** learnt loss-variance per link (Phase 1 output) *)
  transmission : float array;
      (** inferred transmission rate [φ̂ₑ] per link, clamped to (0, 1];
          eliminated links get exactly 1 *)
  loss_rates : float array;  (** [1 - transmission], per link *)
  kept : int array;  (** columns of [R*] *)
  removed : int array;  (** columns approximated as loss-free *)
}

(** How both phases solve their linear systems. *)
type solver =
  | Dense
      (** the default path: the normal equations of both phases, each
          factored by the sparse Cholesky in ascending-degree order —
          Phase 1's streamed Gram ({!Variance_estimator.estimate}), and
          Phase 2's [R*ᵀR*] ({!Plan.Dense_qr}). Exact, and the faster
          path end to end on the ledger's overlays at 240 to 2 070
          paths. *)
  | Cgls of {
      tol : float;  (** CGLS relative tolerance (1e-10 in {!default_cgls}) *)
      max_iter : int option;  (** [None] = the CGLS default cap *)
      sample : (float * int) option;
          (** optional [(fraction, seed)] row-sampling sketch for
              Phase 1 ({!Variance_estimator.matfree_options.sample}) *)
      precond : Variance_estimator.precond_spec;
          (** preconditioner for the Phase-1 augmented solve:
              [Pc_jacobi] (the {!default_cgls} choice — bit-for-bit the
              historical Jacobi-scaled path), [Pc_none], or
              [Pc_block_jacobi groups] for the hierarchical AS-sharded
              path (groups from {!Topology.Partition.group_cols}).
              Block-Jacobi also carries over to the Phase-2 plan
              backend; the other choices leave Phase 2 on the historical
              raw CGLS. *)
    }
      (** iterative: Phase 1 runs preconditioned CGLS over the live
          rows of the augmented matrix — the pairs that share a link
          ({!Augmented.pairs}) — and Phase 2 solves through the sparse
          [R*] ({!Plan.backend}). It never forms a Gram matrix, and
          agrees with [Dense] to solver tolerance on full-rank
          systems. *)

val default_cgls : solver
(** [Cgls { tol = 1e-10; max_iter = None; sample = None;
    precond = Pc_jacobi }]. *)

val learn :
  ?jobs:int ->
  solver:solver ->
  r:Linalg.Sparse.t ->
  y:Linalg.Matrix.t ->
  unit ->
  Linalg.Vector.t * Variance_estimator.ess
(** Phase 1 under [solver]: the link variances learnt from the [m × n_p]
    snapshot matrix [y], with their effective-sample-size report.
    [Dense] runs {!Variance_estimator.estimate_streaming_ess}; [Cgls]
    runs {!Variance_estimator.estimate_matfree_ess} with the solver's
    tolerance, cap, sketch and preconditioner. Both drop negative
    covariances and clamp at 0, and skip the path pairs with fewer than
    2 overlapping snapshots (their effective-sample-size guard). *)

val plan_backend : solver -> Plan.backend
(** The Phase-2 {!Plan} backend for [solver]: [Dense] is
    {!Plan.Dense_qr}; [Cgls] is {!Plan.Cgls} with the same tolerance
    and cap, keeping only a block-Jacobi preconditioner ([Pc_none] and
    [Pc_jacobi] run Phase 2 on raw CGLS). *)

val infer :
  ?solver:solver ->
  ?jobs:int ->
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  unit ->
  result
(** [infer ~r ~y_learn ~y_now ()]: [y_learn] is the [m × n_p] matrix of
    log path transmission rates of the learning snapshots; [y_now] the
    log measurement of the snapshot to diagnose. Raises
    [Invalid_argument] on dimension mismatches. [solver] (default
    [Dense]) picks the linear-algebra path: {!learn}, then a plan over
    {!plan_backend}. [jobs] (default
    [Parallel.Pool.default_jobs ()]) runs Phase 1's covariance and
    normal-equation kernels and Phase 2's Gram on a domain pool; the
    inferred rates are bit-for-bit independent of its value. *)

val congested : result -> threshold:float -> bool array
(** Links whose inferred loss rate exceeds the threshold [tl]. *)

(** {1 Health-checked inference}

    The graceful-degradation entry point for production ingest, where
    snapshot files arrive ragged, NaN-laden, duplicated, or short: the
    learning matrix is scrubbed through {!Quarantine}, the variances are
    learnt pairwise-complete with an effective-sample-size guard, and
    the caller receives a typed verdict instead of an exception escape,
    a NaN-laden estimate, or a silent wrong answer. *)

type degradation = {
  quarantine : Quarantine.report;  (** what ingest scrubbing removed *)
  ess : Variance_estimator.ess;  (** pairwise-complete sample accounting *)
  target_missing : int;  (** missing entries excluded from [y_now] *)
  target_corrupt : int;  (** corrupt entries excluded from [y_now] *)
}

type health =
  | Clean
      (** nothing was quarantined or skipped; the result is bit-for-bit
          [infer] on the same inputs *)
  | Degraded of degradation
      (** inference proceeded on the surviving data; the report bounds
          what was lost *)
  | Refused of string
      (** too little usable signal — no estimate is returned, and the
          reason says why *)

type checked = { health : health; result : result option }
(** [result] is [Some] iff [health] is not [Refused]; when present its
    [loss_rates] and [variances] are always finite. *)

val infer_checked :
  ?solver:solver ->
  ?jobs:int ->
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  unit ->
  checked
(** [infer_checked ~r ~y_learn ~y_now ()] is the fault-tolerant [infer]:

    - [y_learn] is scrubbed ({!Quarantine.scrub}, tolerating up to
      half of a row's cells missing); refused when fewer than 2 rows
      survive;
    - variances are learnt pairwise-complete with at least 2
      overlapping snapshots per pair ({!learn}); refused when more than
      half of the linked path pairs had to be skipped;
    - the entries of [y_now] that {!Quarantine.cell_valid} rejects are
      excluded and Phase 2 solves over the valid paths only
      ({!Quarantine.restrict_target}); refused when none remain;
    - any solver failure or non-finite output becomes [Refused], never
      an exception escape.

    [solver] (default [Dense]) picks the linear-algebra path as in
    {!infer}; the quarantine, effective-sample-size accounting, and
    verdict rules are identical under both, so [Cgls] changes estimates
    only within solver tolerance. Raises [Invalid_argument] only for
    dimension mismatches (programming errors, not data faults).
    Deterministic: same inputs give the same verdict and bit-identical
    estimates for every [jobs] value. *)

val health_label : health -> string
(** ["clean"], ["degraded"], or ["refused"]. *)

val health_summary : health -> string
(** One-line rendering including quarantine and sample accounting. *)
