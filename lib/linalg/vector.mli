(** Dense vectors of floats.

    A vector is a plain [float array]; this module collects the numerical
    operations the tomography code needs so that callers never index raw
    arrays by hand. All binary operations check dimensions and raise
    [Invalid_argument] on mismatch. *)

type t = float array

val zeros : int -> t
(** [zeros n] is the all-zero vector of dimension [n]. *)

val copy : t -> t
(** Fresh copy. *)

val of_list : float list -> t

val sub : t -> t -> t
(** Element-wise difference. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] updates [y <- a*x + y] in place. *)

val dot : t -> t -> float
(** Inner product. *)

val norm_inf : t -> float
(** Maximum absolute entry ([0.] for the empty vector). *)

val hadamard : t -> t -> t
(** Element-wise (Hadamard) product, the [⊗] of the paper. *)

val max_index : t -> int
(** Index of a maximal entry. Raises [Invalid_argument] on empty input. *)

val sort_indices : ?descending:bool -> t -> int array
(** [sort_indices v] is the permutation that sorts [v] increasingly
    (stable); [~descending:true] sorts decreasingly. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Entry-wise comparison with absolute tolerance [tol] (default [1e-9]).
    Vectors of different dimensions are never equal. *)

val pp : Format.formatter -> t -> unit
(** Prints as [[x0; x1; ...]] with 6 significant digits. *)
