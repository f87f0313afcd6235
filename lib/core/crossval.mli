(** Deterministic cross-validation of the estimator zoo over a scenario
    matrix.

    A {!grid} spans four axes — topology family × size × loss model ×
    fault spec — and a seed set turns each grid point into concrete
    {!scenario}s. The runner regenerates every scenario's measurement
    campaign from its seed (topology, {!Netsim.Simulator} snapshots
    under [Static] dynamics, {!Netsim.Faults} injection), hands the
    {e identical} bundle to every requested backend of the
    {!Estimator} registry, and scores the results against the final
    snapshot's realized per-link loss rates: mean/max absolute error
    and median error factor for rate estimators, detection and
    false-positive rate at the congestion threshold for everyone.

    {b Determinism contract.} Cells are evaluated through
    {!Parallel.Pool} but each cell regenerates its own data from the
    scenario seed and writes its own result slot, so the cell array —
    and therefore {!render} and {!to_jsonl} minus their timing fields —
    is bit-for-bit identical for every [jobs] value and across reruns
    of the same grid, seeds, and estimator list. Wall time and
    allocation are telemetry only: {!render} omits them unless asked,
    and the cram suite diffs the default rendering.

    Each cell keeps the backend's {!Estimator.outcome} as given: an
    answer is scored and keeps its health and note, a refusal or a skip
    keeps its reason. A scenario whose fault injection leaves fewer than
    2 snapshots is refused for every backend. *)

type grid = {
  families : string list;
      (** topology families: [tree], [waxman], [ba], [hier-td],
          [hier-bu], [planetlab], [dimes], [transit-stub] — the [gen]
          command's families. Only [tree] produces the single-beacon
          trees the multicast-family backends require. *)
  sizes : int list;  (** end-host count (tree: node count) *)
  models : string list;
      (** loss model names, {!Lossmodel.Loss_model.builtins} *)
  faults : Netsim.Faults.t list;
}

val parse_grid : string -> (grid, string) result
(** DSL: semicolon-separated axes, comma-separated values —
    [family=tree,planetlab;size=15,30;model=llrd1;fault=none|drop=0.2,seed=7].
    Fault alternatives are [|]-separated because specs contain commas.
    Omitted axes keep their default value
    ([family=tree,planetlab;size=15;model=llrd1-calibrated;fault=none]);
    unknown families, models, axis keys, and malformed specs are reported
    in the error. *)

type scenario = {
  family : string;
  size : int;
  model : string;
  fault : Netsim.Faults.t;
  seed : int;
}

val scenarios : grid -> seeds:int list -> scenario list
(** The grid unrolled in fixed nesting order (family, size, model,
    fault, seed) — the order cells are reported in. *)

type score = {
  abs_mean : float option;  (** mean per-link |q̂ - q|; rate backends *)
  abs_max : float option;
  err_factor_median : float option;  (** Bu et al. f_δ, median link *)
  dr : float;  (** detection rate at the threshold *)
  fpr : float;  (** false-positive rate at the threshold *)
}

type outcome =
  | Scored of { score : score; health : Estimator.health; note : string }
  | Refused of string  (** {!Estimator.Refused}, or no campaign *)
  | Skipped of string  (** {!Estimator.Skipped} *)

type cell = {
  scenario : scenario;
  estimator : string;
  outcome : outcome;
  wall_s : float;  (** estimate call only, not data generation *)
  alloc_words : float;  (** GC-allocated words during the call *)
}

val run :
  ?jobs:int ->
  ?threshold:float ->
  ?snapshots:int ->
  ?probes:int ->
  estimators:Estimator.t list ->
  scenarios:scenario list ->
  unit ->
  cell array
(** Every (scenario, estimator) pair, in [scenarios] × [estimators]
    order. [threshold] (default 0.01, the paper's 1% lossy-link bar)
    classifies both truth and estimates; [snapshots] (default 40) is
    the campaign length including the target; [probes] defaults
    to 1000. [jobs] only controls cell dispatch concurrency. *)

val render : ?timing:bool -> cell array -> string
(** The Table-1-style grid, one block per scenario point with seeds
    aggregated (means of scores, health label counts). Deterministic;
    [timing] (default false) appends wall-time and allocation columns
    for human profiling at the cost of byte-stability. *)

val to_jsonl : cell array -> string
(** One JSON object per cell — scenario coordinates, outcome, scores,
    and always the wall/alloc telemetry. *)
