(** Exact incremental basis of 0/1 vectors. Phase 2's rank reduction,
    MILS's row-space test and Theorem 1's identifiability check all ask
    whether 0/1 vectors are linearly independent; this module answers
    exactly, with no tolerance.

    The basis is kept over the prime field GF(p), p = 2³¹ − 1, so every
    product of two residues fits in OCaml's 63-bit [int]. Each basis
    vector is stored sparse, reduced against the basis vectors before it
    and scaled to 1 at its pivot, a position where every later vector is
    0. A candidate comes in as its sorted support and is reduced, oldest
    first, only by the basis vectors whose pivot it holds.

    Rank over GF(p) equals rank over the rationals unless p divides
    every maximal minor of the vectors; the test suite checks it against
    {!Qr.matrix_rank} on every topology family. *)

type t
(** Mutable, and both queries use its scratch space: do not use one
    basis from two domains at once. *)

val create : dim:int -> t
(** Empty basis for vectors of dimension [dim]. Raises
    [Invalid_argument] if [dim] is negative. *)

val size : t -> int
(** Number of basis vectors: the rank of the vectors accepted so far. *)

val try_add : t -> int array -> bool
(** [try_add b s] adds the 0/1 vector whose 1-entries are at [s], a
    strictly increasing array of positions in [0 .. dim-1], if it is
    independent of the basis, and says whether it was. The zero vector
    is always dependent. Raises [Invalid_argument] on any other [s]. *)

val in_span : t -> int array -> bool
(** Whether the vector is in the span of the basis, which stays as it is. *)
