(** Fourier-domain variance estimation on tree topologies (Chen, Cao &
    Bu, "Network Tomography: Identifiability and Fourier Domain
    Estimation").

    Like LIA, this is a {e second-order} estimator: it learns per-link
    variances of the log path transmission rates and hands them to the
    shared Phase-2 rank-reduction solve. Unlike LIA it never forms the
    augmented covariance system. Instead it works in the Fourier domain
    of the measurements: for two paths [Y₁ = S + D₁], [Y₂ = S + D₂]
    sharing the root segment [S] of a tree (with [S], [D₁], [D₂]
    independent by the spatial-independence assumption), the empirical
    characteristic functions satisfy

    [φ₁(t) · conj(φ₂(t)) / E e^{it(Y₁-Y₂)} = |φ_S(t)|²]

    — the shared-branch denominator cancels exactly, leaving the modulus
    of the segment's characteristic function, and
    [-log |φ_S(t)|² / t² → σ_S²] as [t → 0]. Evaluating at a few small
    [t] (scaled by the sample spread) gives the variance of every
    root-to-branch-point segment; per-link variances follow by
    differencing along the tree.

    The estimator is defined only on single-beacon tree topologies
    (where every internal node of the reduced virtual-link tree either
    branches or terminates a path — guaranteed by routing reduction).
    A cell that {!Quarantine.cell_valid} rejects is missing, and missing
    cells are tolerated pairwise-complete; segments whose sample support
    collapses are counted as [unresolved] and inherit their parent's
    segment variance (link variance 0). *)

val subtree_paths : Netsim.Multicast.tree -> int array array
(** Per virtual link: the paths (rows) whose destination lies in its
    subtree, ascending. Every entry is non-empty on a covered tree. *)

val variances :
  tree:Netsim.Multicast.tree -> y_learn:Linalg.Matrix.t -> Linalg.Vector.t * int
(** [variances ~tree ~y_learn] is [(v, unresolved)]: the per-link
    variances estimated in the Fourier domain, clamped at 0, and the
    number of tree nodes whose segment variance could not be estimated
    (fewer than 2 usable samples, or a degenerate empirical
    characteristic function) and fell back to the parent's. The
    characteristic functions are evaluated at 4 points [t_j] with
    [t_j · sd] spanning up to 1, [sd] the pooled sample spread of the
    two representative paths. Phase 2 is LIA's: a {!Plan} over [v].
    Raises [Invalid_argument] when [y_learn] has fewer than 2 rows.
    Deterministic: a pure function of the inputs. *)
