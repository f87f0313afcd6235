(** One network snapshot (Section 3.3): a loss rate per (virtual) link
    drawn from the loss model conditional on each link's congestion
    status, and the measurement of [S] probes on every path.

    Which links are congested is decided by the caller (see
    {!Simulator.status_dynamics}): congestion is a property of a link
    that persists across snapshots, while the loss {e rate} of a
    congested link is redrawn every snapshot — this across-snapshot
    variability is exactly the second-order signal LIA learns. *)

type process =
  | Gilbert of float  (** bursty on/off losses; the float is P(stay bad) *)
  | Bernoulli  (** independent per-probe losses *)

type fidelity =
  | Packet_level
      (** one loss process per link, shared by every path crossing it:
          probe [t] of any path sees the same link state — the physical
          picture behind Assumption S.1 (losses on a link hit all flows
          through it), and the paper's spatial-correlation premise *)
  | Packet_per_path
      (** ablation: an independent copy of the link process per (path,
          link) pair; S.1 then only holds in expectation and the extra
          per-path sampling noise propagates into the inference *)
  | Flow_level
      (** the path delivery count is binomial with the product rate; this
          is exact for [Bernoulli] per-path losses and an approximation
          for [Gilbert] *)

type config = {
  model : Lossmodel.Loss_model.t;
  process : process;
  fidelity : fidelity;
  congestion_prob : float;  (** the paper's [p] *)
  probes : int;  (** the paper's [S] *)
}

val default_config : Lossmodel.Loss_model.t -> config
(** Paper defaults: Gilbert with stay-bad 0.35, packet level, [p] = 0.1,
    [S] = 1000. *)

type t = {
  loss_rates : float array;
      (** target loss rate per link (column) drawn for this slot *)
  realized : float array;
      (** realized loss fraction per link over the slot's [S] probe times:
          the fraction of an ideal probe train the link actually dropped.
          For the shared packet-level fidelity this is the measured ground
          truth (a bursty chain realizes its target rate only up to
          sampling noise); for the other fidelities it equals
          [loss_rates]. *)
  congested : bool array;  (** congestion status per link *)
  received : int array;  (** probes received per path (row) *)
  y : float array;  (** [log] of the measured path transmission rate *)
}

val draw_statuses : Nstats.Rng.t -> config -> links:int -> bool array
(** Independent congested-with-probability-[p] draws, one per link. *)

val generate :
  Nstats.Rng.t -> config -> congested:bool array -> Linalg.Sparse.t -> t
(** [generate rng config ~congested r] draws loss rates conditional on the
    given statuses and measures all paths of routing matrix [r]. Paths
    that lose every probe are clamped to half a probe received so that
    [y] stays finite. Raises [Invalid_argument] on a config with
    [probes <= 0], [congestion_prob] outside [0, 1], or a status vector
    whose length is not the column count of [r]. *)
