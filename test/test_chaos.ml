(* Chaos suite: deterministic fault injection end to end.

   The contracts under test, in order:
   - fault-off is the seed pipeline, bit for bit;
   - the injected fault schedule is a pure function of the spec and the
     matrix shape (same seed, same faults), and the quarantine report and
     estimates are identical for every jobs value;
   - repairing the input recovers the never-faulted output bit for bit;
   - every fault kind ends in exactly one of: clean (bit-identical to
     Lia.infer), typed Degraded with finite estimates, or typed Refused —
     never an escaped exception, never NaN in the loss rates;
   - the degraded solve is still the Plan pipeline (regression pin);
   - the monitor never serves a stale cached variance vector across
     host-churn evictions, and rejects unusable snapshots at ingest. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Faults = Netsim.Faults
module Lia = Core.Lia
module Plan = Core.Plan
module Quarantine = Core.Quarantine
module Monitor = Core.Monitor
module Rng = Nstats.Rng
module G = Generators

let result_bits_equal (a : Lia.result) (b : Lia.result) =
  G.vec_bits_equal a.Lia.variances b.Lia.variances
  && G.vec_bits_equal a.Lia.transmission b.Lia.transmission
  && G.vec_bits_equal a.Lia.loss_rates b.Lia.loss_rates
  && a.Lia.kept = b.Lia.kept
  && a.Lia.removed = b.Lia.removed

let health_equal a b =
  match (a, b) with
  | Lia.Clean, Lia.Clean -> true
  | Lia.Degraded d1, Lia.Degraded d2 ->
      d1.Lia.quarantine = d2.Lia.quarantine
      && d1.Lia.ess = d2.Lia.ess
      && d1.Lia.target_missing = d2.Lia.target_missing
      && d1.Lia.target_corrupt = d2.Lia.target_corrupt
  | Lia.Refused r1, Lia.Refused r2 -> String.equal r1 r2
  | _ -> false

let checked_equal (a : Lia.checked) (b : Lia.checked) =
  health_equal a.Lia.health b.Lia.health
  &&
  match (a.Lia.result, b.Lia.result) with
  | None, None -> true
  | Some ra, Some rb -> result_bits_equal ra rb
  | _ -> false

let result_finite (r : Lia.result) =
  Array.for_all Float.is_finite r.Lia.loss_rates
  && Array.for_all Float.is_finite r.Lia.variances
  && Array.for_all Float.is_finite r.Lia.transmission

(* --- (a) fault off = seed pipeline --------------------------------------- *)

let prop_fault_off_is_seed_pipeline =
  QCheck.Test.make ~count:10
    ~name:"chaos: fault-spec none = seed pipeline, bit for bit" G.seed_arb
    (fun seed ->
      let r, y_learn, target = G.random_tree_trial seed in
      let y', schedule = Faults.apply Faults.none y_learn in
      let checked =
        Lia.infer_checked ~r ~y_learn:y' ~y_now:target.Netsim.Snapshot.y ()
      in
      let baseline = Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
      G.matrix_bits_equal y_learn y'
      && schedule = []
      && checked.Lia.health = Lia.Clean
      && match checked.Lia.result with
         | Some res -> result_bits_equal res baseline
         | None -> false)

(* --- (b) same seed, same schedule; jobs-invariant verdicts ----------------- *)

let prop_same_spec_same_faults =
  QCheck.Test.make ~count:10
    ~name:"chaos: same spec applied twice yields identical faults" G.seed_arb
    (fun seed ->
      let _, y_learn, _ = G.random_tree_trial seed in
      let spec = G.random_fault_spec seed in
      let y1, s1 = Faults.apply spec y_learn in
      let y2, s2 = Faults.apply spec y_learn in
      G.matrix_bits_equal y1 y2 && s1 = s2)

let prop_verdict_jobs_invariant =
  QCheck.Test.make ~count:8
    ~name:"chaos: health verdict and estimates identical for jobs in {1,2,4}"
    G.seed_arb
    (fun seed ->
      let r, y_learn, target = G.random_tree_trial seed in
      let spec = G.random_fault_spec seed in
      let y, _ = Faults.apply spec y_learn in
      let run jobs =
        Lia.infer_checked ~jobs ~r ~y_learn:y ~y_now:target.Netsim.Snapshot.y ()
      in
      let c1 = run 1 in
      checked_equal c1 (run 2) && checked_equal c1 (run 4))

(* --- (c) repaired input recovers bit-identically --------------------------- *)

let prop_repair_recovers =
  QCheck.Test.make ~count:8
    ~name:"chaos: repaired input recovers the never-faulted output" G.seed_arb
    (fun seed ->
      let r, y_learn, target = G.random_tree_trial seed in
      let y_now = target.Netsim.Snapshot.y in
      let before = Lia.infer_checked ~r ~y_learn ~y_now () in
      (* fault-laden run in between: must not perturb any state the
         pipeline reads on the next call *)
      let faulted, _ = Faults.apply (G.random_fault_spec seed) y_learn in
      let _ = Lia.infer_checked ~r ~y_learn:faulted ~y_now () in
      let after = Lia.infer_checked ~r ~y_learn ~y_now () in
      checked_equal before after)

(* --- trichotomy: every fault kind ends in a typed outcome ------------------ *)

let fault_kinds =
  [
    "drop=0.5"; "miss=0.3"; "nan=0.2"; "oor=0.2"; "neg=0.2"; "dup=0.5";
    "churn=2@0.5"; "route_shift=0.5"; "drop=0.9,miss=0.9"; "miss=1";
    (* every kind at once *)
    "drop=0.15,miss=0.08,nan=0.03,oor=0.03,neg=0.02,dup=0.1,churn=1@0.5,\
     route_shift=0.5";
  ]

let prop_trichotomy =
  QCheck.Test.make ~count:6
    ~name:
      "chaos: every fault kind is clean (= Lia.infer), Degraded+finite, or \
       Refused — never an escaped exception"
    G.seed_arb
    (fun seed ->
      let r, y_learn, target = G.random_tree_trial seed in
      let y_now = target.Netsim.Snapshot.y in
      List.for_all
        (fun kind ->
          let spec =
            match Faults.parse (Printf.sprintf "seed=%d,%s" seed kind) with
            | Ok t -> t
            | Error msg -> failwith msg
          in
          let y, _ = Faults.apply spec y_learn in
          match Lia.infer_checked ~r ~y_learn:y ~y_now () with
          | exception e ->
              QCheck.Test.fail_reportf "fault %s escaped: %s" kind
                (Printexc.to_string e)
          | { Lia.health = Lia.Clean; result = Some res } ->
              result_bits_equal res (Lia.infer ~r ~y_learn:y ~y_now ())
          | { Lia.health = Lia.Degraded _; result = Some res } ->
              result_finite res
          | { Lia.health = Lia.Refused _; result = None } -> true
          | _ -> false)
        fault_kinds)

(* --- regression: the degraded solve is still the Plan pipeline ------------- *)

let prop_degraded_solve_is_plan =
  QCheck.Test.make ~count:8
    ~name:"chaos: infer_checked = scrub + ESS estimate + Plan.solve, bit for bit"
    G.seed_arb
    (fun seed ->
      let r, y_learn, target = G.random_tree_trial seed in
      let spec =
        match Faults.parse (Printf.sprintf "seed=%d,miss=0.15,oor=0.05" seed) with
        | Ok t -> t
        | Error msg -> failwith msg
      in
      let y, _ = Faults.apply spec y_learn in
      let y_now = target.Netsim.Snapshot.y in
      match Lia.infer_checked ~r ~y_learn:y ~y_now () with
      | { Lia.result = None; _ } -> true (* refusals pinned elsewhere *)
      | { Lia.result = Some res; _ } ->
          let scrubbed, _ = Quarantine.scrub y in
          let variances, _ =
            Core.Variance_estimator.estimate_streaming_ess ~r ~y:scrubbed ()
          in
          (* the simulator's target snapshot is always valid, so the
             checked path must take the plain full-plan solve *)
          let oracle = Plan.solve (Plan.make ~r ~variances ()) y_now in
          result_bits_equal res oracle)

let test_degraded_target_solves_valid_rows () =
  (* an invalid target cell must be excluded from the Phase-2 system, not
     propagated: the solve runs on the valid paths only *)
  let r, y_learn, target = G.random_tree_trial 7 in
  let y_now = Array.copy target.Netsim.Snapshot.y in
  y_now.(0) <- Float.nan;
  y_now.(1) <- 0.25 (* corrupt: positive log success rate *);
  match Lia.infer_checked ~r ~y_learn ~y_now () with
  | { Lia.health = Lia.Degraded d; result = Some res } ->
      Alcotest.(check int) "missing counted" 1 d.Lia.target_missing;
      Alcotest.(check int) "corrupt counted" 1 d.Lia.target_corrupt;
      Alcotest.(check bool) "estimates finite" true (result_finite res)
  | { Lia.health = h; _ } ->
      Alcotest.failf "expected Degraded, got %s" (Lia.health_label h)

(* --- the skipped-pair rule ---------------------------------------------------- *)

(* Six paths in two groups of three. Each path has a private link, and the
   first [k] cross-group pairs (0,3), (0,4), ... share a link of their
   own, so the linked pairs are the 6 diagonal pairs plus those [k]. The
   learning rows see one group each (half of every row missing, which
   the quarantine still accepts): every cross-group pair has no
   overlapping snapshot and is skipped, every diagonal pair has 2. *)
let split_campaign k =
  let cross =
    List.concat_map (fun i -> List.map (fun j -> (i, j)) [ 3; 4; 5 ]) [ 0; 1; 2 ]
  in
  let links i =
    i
    :: List.concat
         (List.mapi
            (fun t (a, b) -> if t < k && (a = i || b = i) then [ 6 + t ] else [])
            cross)
  in
  let r =
    Sparse.create ~cols:(6 + k) (Array.init 6 (fun i -> Array.of_list (links i)))
  in
  let y_learn =
    Matrix.init 4 6 (fun l i ->
        if (l < 2) = (i < 3) then
          -0.01 *. float_of_int (1 + (((3 * i) + (5 * l)) mod 7))
        else Float.nan)
  in
  (r, y_learn, Array.init 6 (fun i -> -0.02 *. float_of_int (i + 1)))

let test_skipped_pair_rule () =
  let checked k =
    let r, y_learn, y_now = split_campaign k in
    Lia.infer_checked ~r ~y_learn ~y_now ()
  in
  (match checked 7 with
  | { Lia.health = Lia.Refused reason; result = None } ->
      Alcotest.(check string) "7 of 13 skipped"
        "only 6/13 path pairs have 2 overlapping snapshots (allowed skip \
         fraction 0.5)"
        reason
  | { Lia.health = h; _ } ->
      Alcotest.failf "7 of 13 skipped: expected Refused, got %s"
        (Lia.health_label h));
  List.iter
    (fun k ->
      match checked k with
      | { Lia.health = Lia.Degraded d; result = Some _ } ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "%d of %d skipped: pairs used/total" k (6 + k))
            (6, 6 + k)
            (d.Lia.ess.Core.Variance_estimator.pairs_used,
             d.Lia.ess.Core.Variance_estimator.pairs_total)
      | { Lia.health = h; _ } ->
          Alcotest.failf "%d of %d skipped: expected Degraded, got %s" k (6 + k)
            (Lia.health_label h))
    (* just under half, and exactly half: the rule refuses only above it *)
    [ 5; 6 ]

(* --- monitor: churn-safe caching and validating ingest --------------------- *)

let test_monitor_churn_never_serves_stale_variances () =
  let r, y_learn, _ = G.random_tree_trial 11 in
  let np = Sparse.rows r in
  let t = Monitor.create ~r ~window:5 in
  for l = 0 to 4 do
    Monitor.observe t (Matrix.row y_learn l)
  done;
  let v_before = Array.copy (Monitor.variances t) in
  (* host churn: the next snapshot arrives with two hosts dark; it is
     accepted degraded and evicts the oldest window entry *)
  let churned = Array.copy (Matrix.row y_learn 5) in
  churned.(0) <- Float.nan;
  churned.(np - 1) <- Float.nan;
  (match Monitor.observe_checked t churned with
  | Monitor.Accepted_degraded { missing = 2; corrupt = 0 } -> ()
  | o -> Alcotest.failf "unexpected ingest verdict: %s" (Monitor.observation_to_string o));
  Alcotest.(check int) "window stays full" 5 (Monitor.size t);
  let v_after = Monitor.variances t in
  let fresh =
    Core.Variance_estimator.estimate ~r ~y:(Monitor.window_matrix t) ()
  in
  Alcotest.(check bool) "served variances are fresh, bit for bit" true
    (G.vec_bits_equal v_after fresh);
  Alcotest.(check bool) "stale pre-churn vector was not served" false
    (G.vec_bits_equal v_after v_before)

let test_monitor_rejects_unusable_snapshots () =
  let r, y_learn, _ = G.random_tree_trial 13 in
  let np = Sparse.rows r in
  let t = Monitor.create ~r ~window:4 in
  Monitor.observe t (Matrix.row y_learn 0);
  (match Monitor.observe_checked t (Array.make np Float.nan) with
  | Monitor.Rejected Quarantine.All_missing -> ()
  | o -> Alcotest.failf "all-NaN snapshot: %s" (Monitor.observation_to_string o));
  (let bad = Array.copy (Matrix.row y_learn 1) in
   Array.fill bad 0 (np - (np / 4)) Float.nan;
   match Monitor.observe_checked t bad with
   | Monitor.Rejected (Quarantine.Excess_missing _) -> ()
   | o -> Alcotest.failf "mostly-NaN snapshot: %s" (Monitor.observation_to_string o));
  Alcotest.(check int) "rejected snapshots never enter the window" 1
    (Monitor.size t)

let test_monitor_infer_checked_refuses_short_window () =
  let r, y_learn, _ = G.random_tree_trial 17 in
  let t = Monitor.create ~r ~window:4 in
  Monitor.observe t (Matrix.row y_learn 0);
  match Monitor.infer_checked t ~y_now:(Matrix.row y_learn 1) with
  | { Lia.health = Lia.Refused _; result = None } -> ()
  | { Lia.health = h; _ } ->
      Alcotest.failf "expected Refused, got %s" (Lia.health_label h)

(* --- quarantine unit pins --------------------------------------------------- *)

let test_quarantine_reasons () =
  let y =
    Matrix.of_arrays
      [|
        [| -0.1; -0.2; -0.3; -0.4 |];
        [| Float.nan; Float.nan; Float.nan; Float.nan |];
        [| Float.nan; Float.nan; Float.nan; -0.4 |];
        [| -0.1; -0.2; -0.3; -0.4 |];
        [| -0.1; 0.7; -0.3; -0.4 |];
      |]
  in
  let scrubbed, rep = Quarantine.scrub y in
  Alcotest.(check int) "rows kept" 2 (Matrix.rows scrubbed);
  Alcotest.(check bool) "kept indices" true (rep.Quarantine.kept = [| 0; 4 |]);
  Alcotest.(check int) "corrupt cells counted" 1 rep.Quarantine.corrupt_cells;
  let reasons = List.map snd rep.Quarantine.quarantined in
  Alcotest.(check bool) "all-missing flagged" true
    (List.mem Quarantine.All_missing reasons);
  Alcotest.(check bool) "excess-missing flagged" true
    (List.exists
       (function Quarantine.Excess_missing _ -> true | _ -> false)
       reasons);
  Alcotest.(check bool) "duplicate flagged with original index" true
    (List.mem (Quarantine.Duplicate_of 0) reasons)

let test_ess_complete_matrix () =
  let r, y_learn, _ = G.random_tree_trial 23 in
  let m = Matrix.rows y_learn in
  let v1 = Core.Variance_estimator.estimate ~r ~y:y_learn () in
  let v2, ess = Core.Variance_estimator.estimate_streaming_ess ~r ~y:y_learn () in
  Alcotest.(check bool) "same variances" true (G.vec_bits_equal v1 v2);
  Alcotest.(check int) "no pair skipped" ess.Core.Variance_estimator.pairs_total
    ess.Core.Variance_estimator.pairs_used;
  Alcotest.(check int) "full overlap" m ess.Core.Variance_estimator.samples_min

(* --- the spec DSL round trip ---------------------------------------------- *)

(* A random spec string: every clause present or not, each number a
   random double in [0, 1] written with all 17 digits (some exactly 0 or
   1, some tiny), so [to_string] must keep every digit that matters. *)
let random_spec_string seed =
  let rng = Rng.create seed in
  let number () =
    match Rng.int rng 6 with
    | 0 -> 0.
    | 1 -> 1.
    | 2 -> Rng.float rng *. 1e-9
    | _ -> Rng.float rng
  in
  let clause fmt =
    Printf.ksprintf (fun c -> if Rng.bool rng 0.6 then [ c ] else []) fmt
  in
  String.concat ","
    (List.concat
       [
         clause "seed=%d" (Rng.int rng 100_000);
         clause "drop=%.17g" (number ());
         clause "miss=%.17g" (number ());
         clause "nan=%.17g" (number ());
         clause "oor=%.17g" (number ());
         clause "neg=%.17g" (number ());
         clause "dup=%.17g" (number ());
         clause "churn=%d@%.17g" (1 + Rng.int rng 5) (number ());
         clause "route_shift=%.17g" (number ());
       ])

let prop_spec_round_trip =
  QCheck.Test.make ~count:500 ~name:"Faults: parse (to_string t) = Ok t"
    G.seed_arb (fun seed ->
      match Faults.parse (random_spec_string seed) with
      | Error msg -> QCheck.Test.fail_reportf "generated spec rejected: %s" msg
      | Ok t -> Faults.parse (Faults.to_string t) = Ok t)

(* canonical specs print as themselves: every digit kept, none added *)
let test_spec_keeps_digits () =
  List.iter
    (fun spec ->
      Alcotest.(check string) spec spec
        (Faults.to_string (Result.get_ok (Faults.parse spec))))
    [ "seed=3,drop=0.1234567,churn=2@0.3333333333"; "seed=3,drop=0.2,miss=0.1" ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fault_off_is_seed_pipeline;
      prop_same_spec_same_faults;
      prop_verdict_jobs_invariant;
      prop_repair_recovers;
      prop_trichotomy;
      prop_degraded_solve_is_plan;
      prop_spec_round_trip;
    ]

let units =
  [
    Alcotest.test_case "degraded target solves valid rows" `Quick
      test_degraded_target_solves_valid_rows;
    Alcotest.test_case "skipped pairs: refused only above half" `Quick
      test_skipped_pair_rule;
    Alcotest.test_case "monitor: churn never serves stale variances" `Quick
      test_monitor_churn_never_serves_stale_variances;
    Alcotest.test_case "monitor: unusable snapshots rejected" `Quick
      test_monitor_rejects_unusable_snapshots;
    Alcotest.test_case "monitor: short window refuses" `Quick
      test_monitor_infer_checked_refuses_short_window;
    Alcotest.test_case "quarantine: reasons and precedence" `Quick
      test_quarantine_reasons;
    Alcotest.test_case "ess: complete matrix accounting" `Quick
      test_ess_complete_matrix;
    Alcotest.test_case "fault spec keeps its digits" `Quick test_spec_keeps_digits;
  ]

let () = Alcotest.run "chaos" [ ("fault-injection", properties); ("units", units) ]
