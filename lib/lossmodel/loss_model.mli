(** Link loss-rate models (Section 6).

    Following Padmanabhan et al.'s LLRD models as used by the paper: each
    snapshot, a link is congested with probability [p]; congested links
    draw a loss rate from the congested range, good links from the good
    range, and the threshold [tl] separates the two classes. *)

type t = {
  name : string;
  good_lo : float;
  good_hi : float;
  congested_lo : float;
  congested_hi : float;
  threshold : float;  (** the classification threshold [tl] *)
}

val llrd1 : t
(** Good links in [0, 0.002], congested in [0.05, 0.2], [tl] = 0.002. *)

val llrd2 : t
(** Good links in [0, 0.002], congested in [0.002, 1], [tl] = 0.002. *)

val llrd1_calibrated : t
(** LLRD1 with the good-link range tightened to [0, 0.0005]. The paper's
    reported numbers (Fig. 7 keeps ~3x as many columns as there are
    congested links, yet Table 2 FPR stays below 7%) are only mutually
    consistent when un-congested links contribute essentially no loss to a
    path: with the literal [0, 0.002] range, the eliminated links' mass
    (≈0.001 x path length) biases the kept columns past the 0.002
    threshold and inflates FPR to tens of percent under any
    implementation of Phase 2. The experiment harness therefore uses this
    calibrated variant for the headline experiments and reports the
    literal LLRD1 as an ablation. See EXPERIMENTS.md. *)

val internet : t
(** Internet-measurement regime (the paper's Section 7 setting, after
    Zhang et al.'s constancy observations): un-congested links are
    essentially lossless over a 10-second snapshot (good range
    [0, 0.0005]) while congested links span [0.01, 0.3]; [tl] = 0.002. *)

val builtins : (string * t) list
(** The four models above under the names the command line and the
    cross-validation grid accept, in help order: [llrd1],
    [llrd1-calibrated], [llrd2], [internet]. *)

val custom :
  name:string ->
  good:float * float ->
  congested:float * float ->
  threshold:float ->
  t
(** Validated constructor; raises [Invalid_argument] on inverted ranges or
    rates outside [0, 1]. *)

val draw_good : Nstats.Rng.t -> t -> float
(** A loss rate for an un-congested link. *)

val draw_congested : Nstats.Rng.t -> t -> float
(** A loss rate for a congested link. *)

val is_congested : t -> float -> bool
(** [is_congested m rate] is [rate > m.threshold]. *)
