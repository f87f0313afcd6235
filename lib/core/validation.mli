(** Indirect cross-validation of inferred rates (Section 7.2, eq. 11).

    Without ground truth, the paper splits the measured paths into an
    inference half and a validation half, runs LIA on the first and checks
    on the second that each path's measured transmission rate matches the
    product of the inferred rates of its links that the inference topology
    covers, within a tolerance [ε]. *)

type report = {
  consistent : int;
  total : int;
  fraction : float;  (** [consistent / total]; 1.0 when [total = 0] *)
}

val split :
  Nstats.Rng.t -> paths:int -> int array * int array
(** Random half/half partition of row indices (inference, validation). *)

val check_paths :
  r:Linalg.Sparse.t ->
  covered:bool array ->
  transmission:float array ->
  rows:int array ->
  y_now:Linalg.Vector.t ->
  epsilon:float ->
  report
(** Core of eq. (11): for each validation row, compare its measured
    transmission with the product of [transmission] over its covered
    columns. [covered] and [transmission] are indexed by columns of [r]. *)

val cross_validate :
  Nstats.Rng.t ->
  r:Linalg.Sparse.t ->
  y_learn:Linalg.Matrix.t ->
  y_now:Linalg.Vector.t ->
  epsilon:float ->
  report
(** Full procedure: split, run LIA on the inference rows (learning from
    the same rows of [y_learn]), validate on the rest. *)
