(** Factor-once, solve-many inference plans — the Phase-2 serving path.

    In the paper's deployment model (Sec. 5: continuous monitoring of
    end-to-end flows) the routing matrix [r] is fixed and the learnt
    variances change only when Phase 1 is re-run, while a fresh
    measurement vector [y_now] arrives every snapshot. A plan runs the
    per-deployment work once — variance-ordered rank reduction, dense
    extraction of [R*], and its Householder factorization — and serves
    each measurement with an O(n_p·k) Q-apply plus back-substitution
    ([k] = columns of [R*]), instead of redoing the rank reduction and
    the O(n_p·k²) factorization per call as [Lia.infer_with_variances]
    did before it became a wrapper over this module.

    Build-vs-solve complexity, for [n_p] paths, [n_c] links, [k] kept
    columns, [M] snapshots:

    - [make]: exact rank reduction, O(nnz(R)) plus the elimination's
      fill (at most O(k²·n_p)), + O(n_p·k²) factorization, once;
    - [solve]: O(n_p·k) per measurement;
    - [solve_batch]: O(n_p·k·M), one blocked reflector pass for all [M].

    {b Invalidation.} A plan caches decisions derived from [r] and
    [variances] at [make] time: if either changes (new routing, Phase 1
    re-learnt), build a new plan — results from a stale plan answer the
    old deployment. Plans are immutable and safe to share across domains.

    {b Determinism.} [solve] is bit-for-bit identical to the historical
    per-call pipeline, and [solve_batch] is bit-for-bit [solve] on every
    row, for every [jobs] value (property-tested in
    [test/test_plan.ml]). *)

type result = {
  variances : float array;
      (** the plan's variances, echoed per result (Phase 1 output) *)
  transmission : float array;
      (** inferred transmission rate [φ̂ₑ] per link, clamped to (0, 1];
          eliminated links get exactly 1 *)
  loss_rates : float array;  (** [1 - transmission], per link *)
  kept : int array;  (** columns of [R*] *)
  removed : int array;  (** columns approximated as loss-free *)
}

type t
(** An immutable inference plan for one (routing matrix, variances)
    pair. *)

type backend =
  | Dense_qr
      (** materialize the dense [R*] and Householder-factorize it once:
          O(n_p·k²) build, O(n_p·k) per solve — the right choice whenever
          the dense [n_p × k] panel fits comfortably in memory *)
  | Cgls of {
      tol : float;
      max_iter : int option;
      precond : Variance_estimator.precond_spec;
    }
      (** keep [R*] sparse and solve each measurement iteratively
          ({!Linalg.Lsqr.cgls}): O(nnz) build, O(iters · nnz) per solve —
          memory stays O(nnz), which wins once [n_p · k] panels stop
          fitting. [max_iter = None] means the CGLS default ([2k]).
          Iterations feed the [lia_cgls_iterations] counter.

          [precond] is factored once at [make] time and reused by every
          solve: [Pc_none] is the historical raw-CGLS behaviour,
          [Pc_jacobi] equalizes the kept columns' path counts, and
          [Pc_block_jacobi groups] (groups in {e original} column
          numbering, e.g. an AS partition) Cholesky-factors each group's
          [R*ᵀR*] diagonal block independently
          ({!Linalg.Precond.block_jacobi}); groups are intersected with
          the kept columns, so rank reduction and the partition
          compose. *)

val make :
  ?jobs:int -> ?backend:backend ->
  r:Linalg.Sparse.t -> variances:Linalg.Vector.t -> unit -> t
(** [make ~r ~variances ()] runs rank reduction and prepares the solve
    backend (default {!Dense_qr}; the historical behavior). Raises
    [Invalid_argument] when [variances] does not have one entry per
    column of [r]. [jobs] (default [Parallel.Pool.default_jobs ()])
    parallelizes the QR trailing update; the plan is bit-for-bit
    identical for every value. *)

val backend : t -> backend
(** The backend the plan was built with. *)

val solve : t -> Linalg.Vector.t -> result
(** [solve p y_now] infers per-link loss rates for one measurement
    vector (length = paths of the plan's [r]; raises [Invalid_argument]
    otherwise). *)

val solve_batch : ?jobs:int -> t -> Linalg.Matrix.t -> result array
(** [solve_batch p y] solves every row of the [M × n_p] snapshot matrix
    [y] through the plan in one pool-parallel blocked pass; element [l]
    of the result is bit-for-bit [solve p (Matrix.row y l)]. *)

val paths : t -> int
(** Rows of the plan's routing matrix ([n_p]). *)

val links : t -> int
(** Columns of the plan's routing matrix ([n_c]). *)

val rank : t -> int
(** Columns of [R*] — the size of the solved system. *)

val kept : t -> int array
(** Column ids of [R*], in descending variance order (fresh copy). *)

val removed : t -> int array
(** Eliminated columns (inferred loss rate 0; fresh copy). *)

val variances : t -> Linalg.Vector.t
(** The variances the plan was built from (fresh copy). *)
