(** Dense row-major matrices of floats.

    The representation is a flat [float array] with explicit row and column
    counts, so rows can be scanned without per-row bounds checks and the
    whole payload stays in one allocation. Indices are 0-based. Operations
    raise [Invalid_argument] on dimension mismatches.

    The library is compiled with [-opaque] in the default build profile,
    so a call to {!get} or {!set} from another module is never inlined
    and boxes the float it returns or takes. Inner loops of the
    factorizations therefore run on their own [float array] copies
    ({!row} and {!set_row} move whole rows without boxing). *)

type t

val zeros : int -> int -> t

val identity : int -> t

val init : int -> int -> (int -> int -> float) -> t
(** [init rows cols f] has entry [f i j] at row [i], column [j]. *)

val of_arrays : float array array -> t
(** Builds from an array of rows; all rows must have the same length.
    An empty outer array yields the [0 × 0] matrix. *)

val of_row_major : int -> int -> float array -> t
(** [of_row_major rows cols a] has entry [a.((i * cols) + j)] at row [i],
    column [j]. It keeps [a] as its storage, without a copy, so the
    caller must not write to [a] afterwards. Raises [Invalid_argument]
    unless [Array.length a = rows * cols]. *)

val rows : t -> int

val cols : t -> int

val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

val copy : t -> t

val row : t -> int -> Vector.t
(** [row m i] is a fresh copy of row [i]. *)

val col : t -> int -> Vector.t
(** [col m j] is a fresh copy of column [j]. *)

val set_row : t -> int -> Vector.t -> unit

val transpose : t -> t

val add : t -> t -> t

val scale : float -> t -> t

val mul : t -> t -> t
(** Matrix product. *)

val mul_vec : t -> Vector.t -> Vector.t
(** [mul_vec m x] is [m x]. *)

val tmul_vec : t -> Vector.t -> Vector.t
(** [tmul_vec m x] is [mᵀ x] without forming the transpose. *)

val gram : t -> t
(** [gram m] is [mᵀ m] (symmetric positive semi-definite). *)

val diag : Vector.t -> t
(** Square matrix with the given diagonal. *)

val diagonal : t -> Vector.t
(** Diagonal of a matrix (length [min rows cols]). *)

val select_cols : t -> int array -> t
(** [select_cols m idx] keeps columns [idx] in the given order. *)

val drop_cols : t -> int list -> t
(** [drop_cols m idx] removes the listed columns (duplicates allowed). *)

val hstack : t -> t -> t
(** Horizontal concatenation (same number of rows). *)

val vstack : t -> t -> t
(** Vertical concatenation (same number of columns). *)

val approx_equal : ?tol:float -> t -> t -> bool

val is_symmetric : t -> bool
(** Entry-wise symmetry up to an absolute [1e-9]. *)

val pp : Format.formatter -> t -> unit
