(** Empirical cumulative distribution functions.

    Figures 6 and 9 of the paper plot CDFs of inference errors; this module
    builds them and samples them at given points for textual plots. *)

type t

val of_sample : float array -> t
(** Raises [Invalid_argument] on an empty sample. *)

val eval : t -> float -> float
(** [eval t x] is the fraction of the sample that is [<= x]. *)

val inverse : t -> float -> float
(** [inverse t q] for [q] in (0, 1]: the [q]-th empirical quantile
    (smallest sample value [x] with [eval t x >= q]). *)

val curve : ?points:int -> t -> (float * float) list
(** [(x, F(x))] pairs at [points] (default 20) evenly spaced abscissae
    spanning the support, suitable for printing a figure as a table. *)
