(** Minimal Identifiable Link Sequences (Zhao, Chen & Bindel, SIGCOMM 2006
    — reference [36] of the paper).

    First-moment equations cannot determine every individual link loss
    rate, but some {e groups} of consecutive links have an aggregate loss
    rate that is uniquely determined: a linear functional [cᵀx] of the
    link vector is identifiable from [Y = RX] exactly when [c] lies in the
    row space of [R]. A MILS is a minimal consecutive segment of a path
    whose indicator vector is identifiable. The paper contrasts this
    granularity with LIA, whose Theorem 1 shows the {e variances} of those
    same links are individually identifiable.

    Identifiability is tested exactly: a segment's indicator is reduced
    by a {!Linalg.Exact_basis} of the rows of [R] over GF(2³¹ − 1);
    aggregate rates come from the least-squares solution of the
    first-moment system (unique on identifiable functionals). *)

type t
(** Queries use the basis's scratch space: use a [t] from one domain at
    a time. *)

val prepare : Linalg.Sparse.t -> t
(** Precomputes the row-space basis of the routing matrix. *)

val identifiable : t -> int array -> bool
(** [identifiable t cols]: is the sum of [X] over these columns uniquely
    determined by the first-moment equations? [cols] may come in any
    order and repeat a column; an out-of-range column raises
    [Invalid_argument]. *)

val decompose_path : t -> int array -> int array list
(** [decompose_path t cols] partitions a path's column sequence (in
    traversal order, e.g. a row of the reduced routing matrix put in
    the path's edge order) into its minimal identifiable segments,
    greedily from the front: each returned segment is the shortest
    identifiable extension. A non-identifiable tail is merged into the
    last segment; the whole path is always identifiable because rows of
    [R] are. *)

val decompose : t -> int array list array
(** Every row of the routing matrix, segmented (row support order). *)

val segment_loss_rates :
  t -> y_now:Linalg.Vector.t -> int array list array -> (int array * float) list
(** Aggregate loss rate of every segment, deduplicated by support:
    [1 - exp (segment sum of the least-squares log rates)]. *)

val average_length : int array list array -> float
(** Mean number of links per segment — the granularity measure [36]
    reports (LIA's effective granularity is 1.0 by Theorem 1). *)

(** {1 Per-link projection}

    The call shape of the estimator zoo: the system restricted to the
    usable target paths ({!Quarantine.restrict_target}) in, per-link
    rates out. *)

type estimate = {
  loss_rates : float array;
      (** per-link projection of the segment aggregates: each segment's
          loss is spread evenly in the log domain over its links, and a
          link covered by several segments takes the value of its
          shortest (finest-granularity) one; uncovered links read 0 *)
  segments : int array list array;  (** per used path, as {!decompose} *)
  mean_segment_length : float;  (** {!average_length} of [segments] *)
}

val estimate : Linalg.Sparse.t -> y_now:Linalg.Vector.t -> estimate
(** [estimate r ~y_now]: {!prepare} + {!decompose} +
    {!segment_loss_rates} on [r], then the per-link projection.
    Identifiability is judged on the rows of [r], so pass the rows that
    were measured. Raises [Invalid_argument] on a length mismatch. *)
