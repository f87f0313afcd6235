(** Deployment diagnostics: is a monitoring setup sufficient to identify
    link variances?

    Theorem 1 guarantees identifiability for routing matrices produced by
    alias-reduced shortest-path measurements satisfying T.1–T.2; this
    module checks the premise {e constructively} on an arbitrary routing
    matrix by testing the column rank of the augmented matrix, and reports
    which links are entangled when the check fails (e.g. because paths
    were dropped, or the matrix was built from partial measurements). *)

type verdict =
  | Identifiable
  | Dependent of int list
      (** column ids whose augmented columns are linearly dependent on
          the higher-id span: the variances of these links cannot be
          separated from the others with the given paths *)

val check : Linalg.Sparse.t -> verdict
(** [check r] takes the columns of the augmented matrix over its
    non-empty rows ({!Augmented.pairs}) from the highest id down into a
    {!Linalg.Exact_basis}; the columns that do not join it are reported
    as dependent, in increasing order. Independence is exact, over
    GF(2³¹ − 1). *)

val is_identifiable : Linalg.Sparse.t -> bool

val assumptions_report :
  Topology.Graph.t ->
  Topology.Path.t array ->
  removed:Topology.Path.t array ->
  (string * bool) list
(** Checks the paper's assumptions on a concrete measured path set:
    ["columns nonzero"] (every link covered), ["no fluttering"] (T.2),
    ["single path per pair"] (no duplicate beacon/destination pairs).
    Each entry pairs a label with whether it holds.

    [removed] is what {!Topology.Flutter.remove_fluttering} removes from
    the paths. T.2 holds exactly when it removes nothing (the first
    offending pair's later path always goes), so one T.2 walk serves
    both this report and a routing matrix built from the kept paths. *)
