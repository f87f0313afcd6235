(** Factor-once, solve-many inference plans — the Phase-2 serving path.

    In the paper's deployment model (Sec. 5: continuous monitoring of
    end-to-end flows) the routing matrix [r] is fixed and the learnt
    variances change only when Phase 1 is re-run, while a fresh
    measurement vector [y_now] arrives every snapshot. A plan runs the
    per-deployment work once — variance-ordered rank reduction, the
    sparse [R*], and the Cholesky factorization of its normal equations
    [R*ᵀR*] in a fill-reducing order — and serves each measurement with
    [R*ᵀy] and two sparse triangular sweeps, instead of redoing the rank
    reduction and the factorization per snapshot. It is the only way
    learnt variances reach a diagnosis: {!Lia.infer}, the Fourier
    estimator, {!Monitor} (which caches its plan next to its variances),
    {!Delay_lia} and [lia_cli infer --snapshots] all solve through one.

    Build-vs-solve complexity, for [n_p] paths, [n_c] links, [k] kept
    columns, [M] snapshots, [|L|] the entries of the factor of
    [R*ᵀR*]:

    - [make]: exact rank reduction, O(nnz(R)) plus the elimination's
      fill (at most O(k²·n_p)), + the Gram [R*ᵀR*] (O(nnz([R*])) plus
      O(per-path kept links²)) and its factorization (O(Σⱼ|Lⱼ|²)),
      once;
    - [solve]: O(nnz([R*]) + |L|) per measurement;
    - [solve_batch]: [M] independent solves.

    On a 992-path PlanetLab-like overlay [k] was 121–152 (12–15% of
    [n_p]) on five campaigns, [R*] held 374–518 ones, [R*ᵀR*] 54–146
    off-diagonal entries and its factor 54–157.

    {b Invalidation.} A plan caches decisions derived from [r] and
    [variances] at [make] time: if either changes (new routing, Phase 1
    re-learnt), build a new plan — results from a stale plan answer the
    old deployment. Plans are immutable and safe to share across domains.

    {b Determinism.} [solve] is bit-for-bit identical to the per-call
    pipeline (rank reduction, then the dense Cholesky of [P R*ᵀR* Pᵀ]
    in the same order), and [solve_batch] is bit-for-bit [solve] on every
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
      (** factor the normal equations of the sparse [R*] once, by the
          sparse Cholesky of [R*ᵀR*] in ascending-degree order
          ({!Linalg.Cholesky.factorize_ordered}, no ridge): O(nnz) build
          plus the factor's fill, O(nnz([R*]) + |L|) per solve. Squaring
          [R*]'s condition number is harmless here: [R*] is a 0/1 matrix
          of exact full column rank, and κ₂([R*]) stayed below 80 on
          8 000 plans over every topology family checked, where the loss
          rates agreed with a dense Householder QR of [R*] to 1.1e-14.
          The name is historical (the backend was a dense Householder QR
          of [R*]); it stays while the benchmark's pipeline
          ([bench/ledger/pipeline.ml]) names it. *)
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
    backend (default {!Dense_qr}). Raises [Invalid_argument] when
    [variances] does not have one entry per column of [r], and [Failure]
    when {!Dense_qr}'s [R*ᵀR*] is not positive definite to working
    precision (a pivot at or below zero; [Lia.infer_checked] and the
    fourier estimator report it as a refused Phase 2). [jobs] (default
    [Parallel.Pool.default_jobs ()]) parallelizes the Gram build and the
    block-Jacobi factors; the plan is bit-for-bit identical for every
    value. *)

val backend : t -> backend
(** The backend the plan was built with. *)

val solve : t -> Linalg.Vector.t -> result
(** [solve p y_now] infers per-link loss rates for one measurement
    vector (length = paths of the plan's [r]; raises [Invalid_argument]
    otherwise). *)

val least_squares : t -> Linalg.Vector.t -> Linalg.Vector.t
(** [least_squares p y] solves [R* x = y] in the least-squares sense,
    [x] indexed like {!kept}: the vector {!solve} exponentiates, for
    measurements that are not log rates ({!Delay_lia}). Raises
    [Invalid_argument] unless [y] has one entry per path. *)

val solve_batch : ?jobs:int -> t -> Linalg.Matrix.t -> result array
(** [solve_batch p y] solves every row of the [M × n_p] snapshot matrix
    [y] through the plan, the rows spread over the domain pool; element
    [l] of the result is bit-for-bit [solve p (Matrix.row y l)]. *)

val rank : t -> int
(** Columns of [R*] — the size of the solved system. *)

val kept : t -> int array
(** Column ids of [R*], in descending variance order (fresh copy). *)

val removed : t -> int array
(** Eliminated columns (inferred loss rate 0; fresh copy). *)

val variances : t -> Linalg.Vector.t
(** The variances the plan was built from (fresh copy). *)
