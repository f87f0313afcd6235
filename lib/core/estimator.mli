(** The estimator zoo behind one interface.

    Every loss-inference backend in the repository — the paper's LIA in
    both solver flavors, the related-work baselines it compares against
    in Table 1 (MINC, unicast maximum likelihood, MILS, SCFS, CLINK),
    and the Fourier-domain segment-variance estimator of Chen, Cao & Bu
    — is wrapped as a first-class {!t}: a name, a golden accuracy bound
    and one [estimate] function over the shared {!Measurement.t} bundle
    that returns a typed {!outcome}.

    The registry makes apples-to-apples comparison mechanical: the
    {!Crossval} runner hands every backend the {e same} simulated (and
    possibly fault-injected) measurements and scores them against the
    same ground truth.

    Every backend judges its input by one rule. Each one that learns
    from the window (minc, clink, fourier, [lia-*]) reads the rows
    {!Quarantine.scrub} keeps: fewer than 2 is refused, and a report
    that is not clean makes the answer [Degraded], noted [window: kept
    K/T snapshots (quarantined ...); N invalid cells] ([lia-*] note
    {!Lia.health_summary}). Each one that solves against the target
    does so over {!Quarantine.restrict_target}'s usable paths: the
    excluded paths make the answer [Degraded], noted [target: N invalid
    paths excluded] ([lia-*]: [target: M missing, C corrupt]), and a
    target with no usable path is refused. *)

(** What "recovers ground truth" means for each backend on a clean,
    identifiable tree — the contract the golden consistency suite in
    [test/test_estimators.ml] enforces. *)
type golden_bound =
  | Abs_err of float
      (** mean absolute per-link loss-rate error at most this *)
  | Detection of { min_dr : float; max_fpr : float }
      (** lossy-link detection rate / false-positive rate at the
          paper's 1% threshold *)

type health =
  | Clean
  | Degraded  (** the backend answered on the usable part of its input *)

type answer = {
  loss_rates : float array option;
      (** per-link loss-rate estimates, always finite when present;
          [None] for pure-diagnosis backends *)
  verdicts : bool array;
      (** per-link lossy verdicts at the requested threshold; derived
          from [loss_rates] for rate estimators, native for diagnosis
          backends *)
  health : health;
  note : string;
      (** short deterministic diagnostic (may be empty): what degraded
          the input, then backend details *)
}

type outcome =
  | Answer of answer
  | Refused of string  (** the backend looked at the data and declined *)
  | Skipped of string
      (** the input cannot carry the method: no single-beacon tree for
          minc and fourier, a learning window under 2 snapshots *)

type t = {
  name : string;  (** registry key, e.g. ["lia-dense"] *)
  descr : string;  (** one-line provenance *)
  golden : golden_bound;
  estimate : threshold:float -> Measurement.t -> outcome;
      (** Deterministic: same bundle, same outcome. An exception is a
          bug, never a verdict on the data. *)
}

val all : t list
(** The registry, ordered baselines-first: [minc], [em], [mils],
    [scfs], [clink], [fourier], [lia-dense], [lia-cgls]. *)

val names : string list
(** Registry order. *)

val find : string -> t option
