(** The CLINK baseline (Nguyen & Thiran, INFOCOM 2007 — reference [22] of
    the paper): Boolean congested-link location using link congestion
    {e probabilities} learnt from multiple snapshots.

    CLINK sits between SCFS (one snapshot, uniform prior) and LIA (second
    moments, full loss rates) in Table 1: it uses multiple snapshots like
    LIA but only the binary good/bad state of each path, and outputs
    congestion verdicts rather than loss rates.

    Phase 1 learns per-link congestion probabilities from the fraction of
    snapshots in which each path was good: with [q_k = -log P(link k
    good)], the path observations give the linear system
    [R q = -log ĝ], solved in the least-squares sense. Phase 2 explains
    the bad paths of the current snapshot by a minimum-weight set of
    candidate links, weighting each link by [-log p_k] so that habitually
    congested links are cheap to blame (greedy weighted set cover). *)

type model = { congestion_prob : float array  (** learnt [p_k] per link *) }

val learn : r:Linalg.Sparse.t -> good_fraction:float array -> model
(** [learn ~r ~good_fraction] where [good_fraction.(i)] is the fraction of
    snapshots in which path [i] was good. Fractions are clamped away from
    0 and 1 before taking logs; probabilities are clamped to
    [1e-6, 1 - 1e-6]. Raises [Invalid_argument] on a length mismatch. *)

val good_fractions :
  Linalg.Matrix.t -> r:Linalg.Sparse.t -> threshold:float -> float array
(** Binarizes a snapshot matrix of log path transmission rates: path [i]
    is good in a snapshot when its measured transmission exceeds
    [(1 - threshold) ^ length] (same classification as {!Scfs}). A cell
    that {!Quarantine.cell_valid} rejects is missing, not congested: the
    fraction counts usable cells only, and a path with none reads 1. *)

val infer : model -> Linalg.Sparse.t -> bad_paths:bool array -> bool array
(** Congestion verdicts for the current snapshot: links on good paths are
    exonerated; bad paths are covered by the cheapest candidate links
    under the learnt prior. *)
