(** Seeded, deterministic fault injection for the measurement pipeline.

    LIA's identifiability argument (Theorem 1) assumes time-invariant
    routing (T.1), no route fluttering (T.2), and clean, complete
    snapshot files. Production ingest breaks all three: probes get
    dropped, snapshot rows arrive ragged or NaN-laden, hosts churn
    mid-window, and routes silently shift under the estimator. This
    module perturbs a measurement matrix the way a misbehaving
    deployment would, under a seeded spec, so the graceful-degradation
    machinery ({!Core.Quarantine}, the pairwise-complete variance
    estimator, [Core.Lia.infer_checked]) can be chaos-tested
    deterministically.

    {b Determinism contract.} The injected fault schedule is a pure
    function of the spec (including its seed) and the matrix
    dimensions — never of wall-clock, of [jobs], or of the matrix
    values. [apply] with {!none} returns a bit-for-bit copy of its
    input and draws nothing from the PRNG. Applying the same spec to
    the same matrix twice yields bit-identical outputs and identical
    schedules.

    {b Spec DSL} (the CLI's [--fault-spec] argument): comma- or
    semicolon-separated [key=value] clauses.

    - [seed=N] — PRNG seed for the fault stream (default 0);
    - [drop=P] — each snapshot row is dropped with probability [P];
    - [miss=P] — per-host probe loss: each cell goes missing (NaN)
      with probability [P];
    - [nan=P] / [oor=P] / [neg=P] — measurement corruption: each cell
      is overwritten with NaN, an out-of-range positive log rate
      (success rate > 1), or [-infinity] (success rate 0) with
      probability [P];
    - [dup=P] — each snapshot row is emitted twice with probability [P];
    - [churn=K\@F] — host churn: [K] paths stop reporting (NaN) from
      snapshot [floor(F*m)] onward;
    - [route_shift=F] — a T.1/T.2 violation: two deterministic paths
      swap measurement columns from snapshot [floor(F*m)] onward;
    - [none] — the explicit empty spec.

    Faults are applied in a fixed order: route shift, churn, cell
    faults (miss, nan, oor, neg — one PRNG draw each per cell), then
    per-row duplication and dropping. *)

type t
(** A parsed fault spec. *)

val none : t
(** The empty spec: no faults, no PRNG draws. *)

val is_none : t -> bool

val parse : string -> (t, string) result
(** Parse the DSL above. Probabilities must lie in [[0,1]], fractions
    in [[0,1]], churn counts must be positive. Unknown keys and
    malformed clauses are reported in the error string. *)

val to_string : t -> string
(** Canonical round-trippable rendering: [parse (to_string t) = Ok t].
    Each number takes the shortest of 15, 16 and 17 significant digits
    that reads back as the same double, so [0.2] prints as [0.2]. *)

(** One injected fault, in matrix coordinates {e before} row
    duplication/dropping renumbers snapshots. *)
type event =
  | Route_shift of { at : int; a : int; b : int }
      (** columns [a] and [b] swap from snapshot [at] onward *)
  | Churn of { at : int; host : int }
      (** column [host] reports NaN from snapshot [at] onward *)
  | Cell of { snapshot : int; path : int; what : string }
      (** cell fault; [what] is ["miss"], ["nan"], ["oor"] or ["neg"] *)
  | Duplicated of int  (** snapshot emitted twice *)
  | Dropped of int  (** snapshot removed *)

type schedule = event list
(** Events in application order. *)

val apply : t -> Linalg.Matrix.t -> Linalg.Matrix.t * schedule
(** [apply spec y] is the perturbed copy of [y] plus the schedule of
    injected faults. The output may have fewer or more rows than [y]
    (drops and duplicates); missing measurements are represented as
    NaN. [y] itself is never mutated. *)

val summary : schedule -> string
(** One-line deterministic rendering, e.g.
    ["route shifts 1, churned hosts 2, cells 13 (miss 9, nan 4), duplicated 1, dropped 2"];
    ["no faults injected"] when empty. *)
