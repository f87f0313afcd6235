(** Sparse 0/1 matrices stored by rows.

    Routing matrices [R] and the augmented matrix [A] of the paper are 0/1
    and extremely sparse (a row has one entry per link of a path). A row is
    the strictly increasing array of its nonzero column indices. This
    module provides exactly the operations the tomography pipeline needs:
    row-wise products (the [⊗] of Definition 1), matrix-vector products,
    dense conversion of column subsets, and least squares through the
    sparse normal equations, which keeps the [n_p(n_p+1)/2 × n_c] system of
    eq. (8) tractable. *)

type row = int array
(** Strictly increasing column indices of the 1-entries. *)

type t

val create : cols:int -> row array -> t
(** [create ~cols rows] validates that every row is strictly increasing and
    within [0 .. cols-1]. Raises [Invalid_argument] otherwise. *)

val rows : t -> int

val cols : t -> int

val row : t -> int -> row
(** The row's support (do not mutate). *)

val nnz : t -> int
(** Number of stored ones. *)

val get : t -> int -> int -> bool
(** Membership test by binary search. *)

val row_product : row -> row -> row
(** Sorted intersection: the support of the element-wise product of two 0/1
    rows ([Ri∗ ⊗ Rj∗] in the paper). *)

val mul_vec : t -> Vector.t -> Vector.t
(** [mul_vec m x] is [m x]: each row sums its entries of [x] in
    increasing column order. Allocates only the result. *)

val tmul_vec : t -> Vector.t -> Vector.t
(** [tmul_vec m x] is [mᵀ x]: rows scatter [x.(i)] in increasing row
    order, skipping zero weights. Allocates only the result. *)

val column_counts : t -> int array
(** For each column, how many rows contain it. *)

val to_dense : t -> Matrix.t

val dense_cols : t -> int array -> Matrix.t
(** [dense_cols m idx] is the dense [rows × |idx|] matrix of the selected
    columns (in the given order). *)

val select_rows : t -> int array -> t
(** Keeps the given rows in the given order (duplicates allowed). *)

val select_cols : t -> int array -> t
(** Keeps the given columns, renumbering them [0 .. |idx|-1] in order. Rows
    keep only their surviving entries (possibly becoming empty). *)

val permute_cols : t -> int array -> t
(** [permute_cols m order] reorders the columns: new column [k] is old
    column [order.(k)]. [order] must be a permutation of
    [0 .. cols-1] — unlike {!select_cols} nothing is dropped — so the
    result is the same matrix up to column numbering. This is the block
    reordering of the hierarchical solve path: with [order] the
    concatenation of an AS partition's groups, the permuted matrix has
    each group's columns contiguous (doubly-bordered block-diagonal
    form). Raises [Invalid_argument] if [order] is not a
    permutation. *)

val gram_block : t -> int array -> Matrix.t
(** [gram_block m idx] is the dense [|idx| × |idx|] diagonal block
    [(mᵀm)_{idx,idx}] of the Gram matrix — entry [(a,b)] counts the rows
    containing both column [idx.(a)] and column [idx.(b)]. O(nnz) plus
    O(per-row hits²); exact integer counts, deterministic. The
    per-group factor of {!Precond.block_jacobi}. *)

val transpose : t -> t

val cols_index : t -> row array
(** CSC-style column index, built in one O(nnz) pass: entry [j] is the
    strictly increasing array of the rows whose support contains column
    [j] (exactly the rows of {!transpose}). Each entry is the support of
    a column, the form {!Exact_basis.try_add} takes, so a consumer reads
    a column in O(nnz of the column) instead of probing all rows with
    {!get}. Entries are fresh arrays the caller may keep. *)

val gram_lower : ?jobs:int -> t -> Cholesky.sym
(** [gram_lower a] is the Gram matrix [aᵀ a] in the sparse lower-triangle
    form {!Cholesky.factorize} takes: the pattern of row [j] is the
    columns [c < j] that share a row of [a] with [j], each entry counts
    those rows, and the diagonal counts the rows holding [j]. O(nnz) plus
    O(per-row hits²) work and O(nnz(aᵀa)) memory: no [cols × cols] array.
    Rows of the result are built in parallel over [jobs] domains
    (default [Parallel.Pool.default_jobs ()]); every entry is an exact
    integer count, so the result is the same for every [jobs]. *)

val least_squares : ?ridge:float -> ?jobs:int -> t -> Vector.t -> Vector.t
(** Minimizes [‖a x − b‖₂] by solving the normal equations {!gram_lower}
    and {!tmul_vec} with {!Cholesky.solve_ordered}. When [a] lacks full
    column rank (a row filter such as Phase 1's drop-negative rule can
    cost it), the Gram matrix is singular and the values along its null
    space are whatever rounding and the ridge make of them. *)

val equal : t -> t -> bool
