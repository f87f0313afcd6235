(* Table 2 and Figure 7: LIA on six mesh topologies (BRITE Waxman /
   Barabasi-Albert / hierarchical top-down and bottom-up, plus the
   PlanetLab-like and DIMES-like substitutes), LLRD1, p = 10%, m = 50,
   S = 1000.

   Table 2 reports DR/FPR and the max/median/min of the error factors and
   absolute errors; Figure 7 the ratio of congested links to columns kept
   in R* (always below 1: no congested link is ever eliminated).

   Paper reference rows (DR / FPR / EF max / abs max):
     Barabasi-Albert        91.27% / 3.78% / 1.27 / 0.0018
     Waxman                 92.67% / 2.84% / 1.42 / 0.0020
     Hierarchical top-down  87.81% / 6.13% / 1.55 / 0.0026
     Hierarchical bottom-up 90.00% / 3.78% / 1.44 / 0.0014
     PlanetLab              96.40% / 2.71% / 1.16 / 0.0010
     DIMES                  86.75% / 6.05% / 1.56 / 0.0017 *)

module H = Topology.Hierarchical

let runs_per_topology = 5

let topologies =
  [
    ( "Barabasi-Albert",
      fun rng -> Topology.Barabasi_albert.generate rng ~nodes:1000 ~hosts:30 );
    ("Waxman", fun rng -> Topology.Waxman.generate rng ~nodes:1000 ~hosts:30 ());
    ( "Hierarchical (TD)",
      fun rng ->
        H.generate rng ~flavour:H.Top_down ~ases:25 ~routers_per_as:12 ~hosts:25 );
    ( "Hierarchical (BU)",
      fun rng ->
        H.generate rng ~flavour:H.Bottom_up ~ases:25 ~routers_per_as:12 ~hosts:25 );
    ( "PlanetLab-like",
      fun rng -> Topology.Overlay.planetlab_like rng ~hosts:30 () );
    ("DIMES-like", fun rng -> Topology.Overlay.dimes_like rng ~hosts:30) ]

type stats = {
  name : string;
  dr : float;
  fpr : float;
  ef : Core.Metrics.spread;
  abs : Core.Metrics.spread;
  ratio : float;  (** congested / columns kept in R* *)
}

let collect () =
  List.mapi
    (fun t_idx (name, make) ->
      let drs = ref [] and fprs = ref [] in
      let efs = ref [] and abss = ref [] in
      let ratios = ref [] in
      Array.iter
        (fun seed ->
          let rng = Nstats.Rng.create seed in
          let tb = make rng in
          let trial = Exp_common.run_trial ~seed:(seed + 13) ~m:50 tb in
          let loc = Exp_common.location_of_trial trial in
          drs := loc.Core.Metrics.dr :: !drs;
          fprs := loc.Core.Metrics.fpr :: !fprs;
          efs := Exp_common.congested_error_factors trial @ !efs;
          abss := Exp_common.congested_absolute_errors trial @ !abss;
          let ncong, kept = Exp_common.congested_vs_kept trial in
          ratios := (float_of_int ncong /. float_of_int (max 1 kept)) :: !ratios)
        (Exp_common.seeds ~base:(700 + (t_idx * 97)) runs_per_topology);
      let avg l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
      {
        name;
        dr = avg !drs;
        fpr = avg !fprs;
        ef = Core.Metrics.spread (Array.of_list !efs);
        abs = Core.Metrics.spread (Array.of_list !abss);
        ratio = avg !ratios;
      })
    topologies

let print_table stats =
  Exp_common.header "Table 2: simulations on mesh topologies (LLRD1, p=10%, m=50)";
  Exp_common.row "%-20s %-8s %-8s | %-18s | %-24s" "Topology" "DR" "FPR"
    "error factor" "absolute error";
  Exp_common.row "%-20s %-8s %-8s | %-6s %-6s %-4s | %-8s %-8s %-6s" "" "" ""
    "max" "median" "min" "max" "median" "min";
  List.iter
    (fun s ->
      Exp_common.row
        "%-20s %6.2f%% %6.2f%% | %-6.2f %-6.2f %-4.2f | %-8.4f %-8.4f %-6.4f"
        s.name (Exp_common.pct s.dr) (Exp_common.pct s.fpr) s.ef.Core.Metrics.max
        s.ef.Core.Metrics.median s.ef.Core.Metrics.min s.abs.Core.Metrics.max
        s.abs.Core.Metrics.median s.abs.Core.Metrics.min)
    stats;
  Exp_common.note
    "paper: DR 86-96%%, FPR 2.7-6.1%%, EF max 1.16-1.56 median 1.00, abs max <= 0.0026"

let print_fig7 stats =
  Exp_common.header "Figure 7: congested links / columns kept in R*";
  Exp_common.row "%-20s %-8s" "Topology" "ratio";
  List.iter
    (fun s -> Exp_common.row "%-20s %.2f" s.name s.ratio)
    stats;
  Exp_common.note "paper: always below 1 - no congested link is eliminated"

let run () = print_table (collect ())

let run_fig7 () = print_fig7 (collect ())

let run_both () =
  let stats = collect () in
  print_table stats;
  print_fig7 stats
