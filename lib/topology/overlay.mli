(** Synthetic PlanetLab-like and DIMES-like overlays.

    The paper's Table 2 and Section 7 use measured PlanetLab and DIMES
    topologies that we cannot fetch in a sealed environment; these
    generators produce structurally similar substitutes (see DESIGN.md).
    The property that matters for LIA's Phase 2 is the measured networks'
    high link-to-beacon ratio (PlanetLab: 14 922 links for 500 beacons):
    paths are long and the covered-link count far exceeds the congested
    count, so the variance-ordered column elimination stops soon after the
    congested block.

    - {b PlanetLab-like}: a large research-network (GREN-style) router
      mesh, spatially clustered into many university ASes, roughly 30
      covered core routers per host; every host is both beacon and
      destination, one host per institution AS.
    - {b DIMES-like}: a preferential-attachment commercial core with many
      small ASes; hosts attach at low-degree edge routers, giving the
      flatter, degree-skewed structure of DIMES agents. *)

val planetlab_like :
  Nstats.Rng.t -> hosts:int -> ?ases:int -> ?routers_per_as:int -> unit -> Testbed.t
(** Defaults: [ases = 2 * hosts], [routers_per_as = 15]. *)

val dimes_like : Nstats.Rng.t -> hosts:int -> Testbed.t
(** A BA core of [20 * hosts] nodes, partitioned into many small ASes;
    each host attaches to a low-degree core node. *)
