(* Experiment harness: regenerates every table and figure of the paper's
   evaluation (Sections 6 and 7) and the extensions next to them. With no
   argument it runs everything; otherwise pass experiment ids (fig3 fig5
   fig6 tab2 fig7 fig8 fig9 tab3 duration timing ablations delay
   baselines dual). See DESIGN.md for the per-experiment index and
   EXPERIMENTS.md for paper-vs-measured numbers. Speed claims beyond the
   paper's Section 6.4 come from the benchmark in bench/ledger. *)

let experiments =
  [
    ("fig3", Fig3.run);
    ("fig5", Fig5.run);
    ("fig6", Fig6.run);
    ("tab2", Tab2.run);
    ("fig7", Tab2.run_fig7);
    ("fig8", Fig8.run);
    ("fig9", Fig9.run);
    ("tab3", Tab3.run);
    ("duration", Tab3.run);
    ("timing", Timing.run);
    ("ablations", Ablations.run);
    ("delay", Ext_delay.run);
    ("baselines", Baselines.run);
    ("dual", Dual.run);
  ]

let run_all () =
  Fig3.run ();
  Fig5.run ();
  Fig6.run ();
  Tab2.run_both ();
  Fig8.run ();
  Fig9.run ();
  Tab3.run ();
  Baselines.run ();
  Dual.run ();
  Ext_delay.run ();
  Ablations.run ();
  Timing.run ()

let () =
  match Array.to_list Sys.argv with
  | [] | [ _ ] ->
      let t0 = Unix.gettimeofday () in
      run_all ();
      Printf.printf "\nall experiments completed in %.1f s\n"
        (Unix.gettimeofday () -. t0)
  | _ :: names ->
      List.iter
        (fun name ->
          match List.assoc_opt name experiments with
          | Some f -> f ()
          | None ->
              Printf.eprintf "unknown experiment %S; available: %s\n" name
                (String.concat ", " (List.map fst experiments));
              exit 1)
        names
