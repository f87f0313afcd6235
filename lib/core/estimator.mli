(** The estimator zoo behind one interface.

    Every loss-inference backend in the repository — the paper's LIA in
    both solver flavors, the related-work baselines it compares against
    in Table 1 (MINC, unicast maximum likelihood, MILS, SCFS, CLINK),
    and the Fourier-domain segment-variance estimator of Chen, Cao & Bu
    — is wrapped as a first-class {!t}: a name, a capability record
    saying what inputs and topologies it can consume, and one
    [estimate] function over the shared {!Measurement.t} bundle.

    The registry makes apples-to-apples comparison mechanical: the
    {!Crossval} runner hands every capable backend the {e same}
    simulated (and possibly fault-injected) measurements and scores
    them against the same ground truth. Capability mismatches are
    reported as typed skips ([Error reason]), data faults as a
    ["refused"] health verdict — never as exception escapes.

    Every backend reads cells by {!Quarantine.cell_valid}: a learning
    cell it rejects is skipped like NaN, and every backend that solves
    against the target does so over {!Quarantine.restrict_target}'s
    usable paths. The excluded paths make the output ["degraded"],
    noted [target: N invalid paths excluded] ([lia-*] report them as
    [target: M missing, C corrupt]); a target with no usable path is
    refused. *)

type capabilities = {
  tree_only : bool;
      (** only sound on single-beacon tree topologies (the multicast
          family); general mesh routing is a typed skip *)
  needs_snapshots : bool;
      (** requires a learning window of at least 2 snapshots
          ([y_learn]); a single target measurement is not enough *)
  boolean_verdicts : bool;
      (** a topology-diagnosis method: outputs per-link lossy/not-lossy
          verdicts only, no loss-rate magnitudes *)
}

(** What "recovers ground truth" means for each backend on a clean,
    identifiable tree — the contract the golden consistency suite in
    [test/test_estimators.ml] enforces. *)
type golden_bound =
  | Abs_err of float
      (** mean absolute per-link loss-rate error at most this *)
  | Detection of { min_dr : float; max_fpr : float }
      (** lossy-link detection rate / false-positive rate at the
          paper's 1% threshold *)

type output = {
  loss_rates : float array option;
      (** per-link loss-rate estimates, always finite when present;
          [None] for pure-diagnosis backends *)
  verdicts : bool array option;
      (** per-link lossy verdicts at the requested threshold; derived
          from [loss_rates] for rate estimators, native for diagnosis
          backends. [None] only when the backend refused. *)
  health : string;  (** ["clean"], ["degraded"], or ["refused"] *)
  note : string;  (** short deterministic diagnostic (may be empty) *)
}

type t = {
  name : string;  (** registry key, e.g. ["lia-dense"] *)
  descr : string;  (** one-line provenance *)
  caps : capabilities;
  golden : golden_bound;
  estimate : threshold:float -> Measurement.t -> (output, string) result;
      (** [Error reason] is a capability skip (wrong topology family,
          missing inputs); data-quality failures surface as
          [Ok { health = "refused"; _ }] instead. Deterministic: same
          bundle, same output. *)
}

val check : t -> Measurement.t -> (unit, string) result
(** Capability screen only — the exact [Error] the adapter's [estimate]
    would return without running it: tree derivability for [tree_only]
    backends, learning-window size for [needs_snapshots]. *)

val all : t list
(** The registry, ordered baselines-first: [minc], [em], [mils],
    [scfs], [clink], [fourier], [lia-dense], [lia-cgls]. *)

val names : string list
(** Registry order. *)

val find : string -> t option
