(** Evaluation metrics of Section 6.

    Detection rate and false-positive rate for congested-link location,
    and the error factor [f_δ] of Bu et al. for loss-rate accuracy
    (eq. 10). *)

type location = { dr : float; fpr : float }

val location : actual:bool array -> inferred:bool array -> location
(** [dr = |F ∩ X| / |F|] and [fpr = |X \ F| / |X|]. A rate with an empty
    denominator is reported as [1.0] for DR (nothing to detect) and [0.0]
    for FPR (nothing flagged). Raises [Invalid_argument] on a length
    mismatch. *)

val error_factor : float -> float -> float
(** [error_factor q q*] with both arguments floored at [δ = 1e-3];
    always [>= 1]. *)

val error_factors : actual:float array -> inferred:float array -> float array

val absolute_errors : actual:float array -> inferred:float array -> float array

type spread = { max : float; median : float; min : float }

val spread : float array -> spread
(** Raises [Invalid_argument] on an empty sample. *)

val pp_location : Format.formatter -> location -> unit

val pp_spread : Format.formatter -> spread -> unit
