(* Tests for the deployment diagnostics (identifiability checker), the
   probe scheduler, and the report writer. *)

module Sparse = Linalg.Sparse
module Rng = Nstats.Rng
module Identifiability = Core.Identifiability
module Schedule = Netsim.Schedule
module Report = Core.Report

let r_fig1 = Sparse.create ~cols:5 [| [| 0; 1 |]; [| 0; 2; 3 |]; [| 0; 2; 4 |] |]

(* --- Identifiability --------------------------------------------------- *)

let test_fig1_identifiable () =
  Alcotest.(check bool) "figure 1 identifiable" true
    (Identifiability.is_identifiable r_fig1)

let test_random_topologies_identifiable () =
  (* Theorem 1: any alias-reduced shortest-path deployment passes *)
  List.iter
    (fun seed ->
      let rng = Rng.create seed in
      let tb = Topology.Waxman.generate rng ~nodes:60 ~hosts:8 () in
      let red = Topology.Testbed.routing tb in
      Alcotest.(check bool) "mesh identifiable" true
        (Identifiability.is_identifiable red.Topology.Routing.matrix))
    [ 1; 2; 3 ]

let test_duplicate_columns_not_identifiable () =
  (* two alias links that were NOT grouped: identical columns *)
  let r = Sparse.create ~cols:3 [| [| 0; 1; 2 |]; [| 1; 2 |] |] in
  match Identifiability.check r with
  | Identifiability.Identifiable -> Alcotest.fail "should be dependent"
  | Identifiability.Dependent deps ->
      Alcotest.(check (list int)) "the lower-id alias link is in the span" [ 1 ]
        deps

(* Dependent is exactly "in the span of the higher-id columns": column j
   is listed iff its dense augmented column does not raise the float rank
   of columns j+1 .. n_c-1. *)
let prop_check_matches_float_rank =
  QCheck.Test.make ~count:60
    ~name:
      "check: Dependent = the columns that do not raise the QR rank of the \
       higher-id augmented columns (routing with empty rows)"
    Generators.seed_arb
    (fun seed ->
      let r = Generators.with_empty_rows seed (Generators.random_routing seed) in
      let a = Oracle.Augmented.build r in
      let live =
        List.filter (fun k -> Sparse.row a k <> [||]) (List.init (Sparse.rows a) Fun.id)
      in
      let a = Sparse.select_rows a (Array.of_list live) in
      let nc = Sparse.cols r in
      let rank_from j =
        Oracle.Qr.matrix_rank (Sparse.dense_cols a (Array.init (nc - j) (fun t -> j + t)))
      in
      let rec expected j above acc =
        if j < 0 then acc
        else
          let rank = rank_from j in
          expected (j - 1) rank (if rank = above then j :: acc else acc)
      in
      let dependent =
        match Identifiability.check r with
        | Identifiability.Identifiable -> []
        | Identifiability.Dependent deps -> deps
      in
      dependent = expected (nc - 1) 0 [])

let test_empty_matrix () =
  let r = Sparse.create ~cols:0 [||] in
  Alcotest.(check bool) "vacuously identifiable" true
    (Identifiability.is_identifiable r)

let test_assumptions_report () =
  let nodes =
    Array.init 4 (fun i ->
        { Topology.Graph.id = i;
          kind =
            (if i = 0 || i = 3 then Topology.Graph.Host else Topology.Graph.Router);
          as_id = 0 })
  in
  let graph =
    Topology.Graph.create ~nodes ~edges:[| (0, 1); (1, 3); (1, 2) |]
  in
  let p = Topology.Path.make ~graph ~nodes:[| 0; 1; 3 |] in
  let report_on paths =
    Identifiability.assumptions_report graph paths
      ~removed:(snd (Topology.Flutter.remove_fluttering paths))
  in
  let report = report_on [| p |] and dup = report_on [| p; p |] in
  Alcotest.(check bool) "uncovered link detected" true
    (List.assoc "every link covered by a path" report = false);
  Alcotest.(check bool) "no fluttering" true
    (List.assoc "no route fluttering (T.2)" report);
  Alcotest.(check bool) "unique pairs" true
    (List.assoc "single path per beacon/destination pair" report);
  Alcotest.(check bool) "duplicate pair flagged" false
    (List.assoc "single path per beacon/destination pair" dup)

(* The report's T.2 line reads what the T.2 repair removed: it must say
   what the all-pairs oracle's list of offending pairs says. *)
let prop_report_t2_line =
  QCheck.Test.make ~count:300
    ~name:"assumptions report: T.2 line = all-pairs oracle on path sets"
    Generators.seed_arb
    (fun seed ->
      let graph, paths = Generators.random_path_set_on_graph seed in
      let report =
        Identifiability.assumptions_report graph paths
          ~removed:(snd (Topology.Flutter.remove_fluttering paths))
      in
      List.assoc "no route fluttering (T.2)" report = (Oracle.Flutter.check paths = []))

(* --- Schedule ------------------------------------------------------------- *)

let sample_routing seed hosts =
  let rng = Rng.create seed in
  let tb = Topology.Overlay.planetlab_like rng ~hosts ~ases:6 ~routers_per_as:4 () in
  Topology.Testbed.routing tb

let test_schedule_quota () =
  (* 40 B every 10 ms = 4000 B/s per train; 100 KB/s caps at 25 trains *)
  Alcotest.(check int) "paper quota" 25
    (Schedule.concurrent_paths_per_beacon Schedule.default_config)

let test_schedule_covers_all_paths_once () =
  let red = sample_routing 11 10 in
  let rng = Rng.create 13 in
  let s = Schedule.build rng Schedule.default_config red in
  let np = Array.length red.Topology.Routing.paths in
  let seen = Array.make np 0 in
  Array.iter
    (fun round -> Array.iter (fun idx -> seen.(idx) <- seen.(idx) + 1) round)
    s.Schedule.rounds;
  Alcotest.(check bool) "each path exactly once" true
    (Array.for_all (fun c -> c = 1) seen)

let test_schedule_respects_quota () =
  let red = sample_routing 17 10 in
  let rng = Rng.create 19 in
  let config = { Schedule.default_config with Schedule.rate_limit_bytes_per_s = 8000. } in
  let quota = Schedule.concurrent_paths_per_beacon config in
  Alcotest.(check int) "tight quota" 2 quota;
  let s = Schedule.build rng config red in
  Array.iter
    (fun round ->
      let per_beacon = Hashtbl.create 8 in
      Array.iter
        (fun idx ->
          let b = red.Topology.Routing.paths.(idx).Topology.Path.src in
          Hashtbl.replace per_beacon b
            (1 + Option.value ~default:0 (Hashtbl.find_opt per_beacon b)))
        round;
      Hashtbl.iter
        (fun _ c -> Alcotest.(check bool) "quota respected" true (c <= quota))
        per_beacon)
    s.Schedule.rounds

let test_schedule_duration () =
  let red = sample_routing 23 10 in
  let rng = Rng.create 29 in
  let s = Schedule.build rng Schedule.default_config red in
  (* each round lasts S * 10ms = 10 s *)
  Alcotest.(check (float 1e-9)) "snapshot duration"
    (10. *. float_of_int (Array.length s.Schedule.rounds))
    s.Schedule.snapshot_seconds

let test_schedule_bandwidth_capped () =
  let red = sample_routing 31 10 in
  let rng = Rng.create 37 in
  let s = Schedule.build rng Schedule.default_config red in
  List.iter
    (fun (_, bw) ->
      Alcotest.(check bool) "within the cap" true
        (bw <= Schedule.default_config.Schedule.rate_limit_bytes_per_s +. 1e-9))
    s.Schedule.beacon_bandwidth

let test_schedule_invalid_rate () =
  let red = sample_routing 41 6 in
  let rng = Rng.create 43 in
  let config = { Schedule.default_config with Schedule.rate_limit_bytes_per_s = 100. } in
  Alcotest.check_raises "rate too small"
    (Invalid_argument "Schedule.build: rate limit below a single probe train")
    (fun () -> ignore (Schedule.build rng config red))

(* --- Report --------------------------------------------------------------- *)

let sample_result () =
  let rng = Rng.create 51 in
  let tb = Topology.Tree_gen.generate rng ~nodes:100 ~max_branching:5 () in
  let routing = Topology.Testbed.routing tb in
  let r = routing.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:21 in
  let y_learn, target = Netsim.Simulator.split_learning run ~learning:20 in
  let result = Core.Lia.infer ~r ~y_learn ~y_now:target.Netsim.Snapshot.y () in
  (tb, routing, result)

let test_report_summary () =
  let _, _, result = sample_result () in
  let s = Report.summary result ~threshold:0.002 in
  Alcotest.(check bool) "mentions kept" true
    (String.length s > 0
    && String.sub s 0 4 = "kept")

let test_report_table_contents () =
  let tb, routing, result = sample_result () in
  let text = Report.table ~graph:tb.Topology.Testbed.graph ~routing result in
  Alcotest.(check bool) "has header" true
    (String.length text > 0);
  (* table lines reference AS location when the graph is supplied *)
  let has_as =
    String.split_on_char '\n' text
    |> List.exists (fun l ->
           let is_sub sub s =
             let n = String.length sub and m = String.length s in
             let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
             go 0
           in
           is_sub "intra-AS" l || is_sub "inter-AS" l)
  in
  Alcotest.(check bool) "AS annotations present" true has_as

let test_report_top_limits_rows () =
  let _, routing, result = sample_result () in
  let text =
    Report.table
      ~options:{ Report.default_options with Report.top = 3 }
      ~routing result
  in
  let rows =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.length l > 0 && l.[0] >= '0' && l.[0] <= '9')
  in
  Alcotest.(check int) "three rows" 3 (List.length rows)

let () =
  Alcotest.run "diagnostics"
    [
      ( "identifiability",
        [
          Alcotest.test_case "figure 1" `Quick test_fig1_identifiable;
          Alcotest.test_case "random meshes" `Quick
            test_random_topologies_identifiable;
          Alcotest.test_case "duplicate columns" `Quick
            test_duplicate_columns_not_identifiable;
          Alcotest.test_case "empty" `Quick test_empty_matrix;
          Alcotest.test_case "assumptions report" `Quick test_assumptions_report;
          QCheck_alcotest.to_alcotest prop_check_matches_float_rank;
          QCheck_alcotest.to_alcotest prop_report_t2_line;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "paper quota" `Quick test_schedule_quota;
          Alcotest.test_case "covers all paths once" `Quick
            test_schedule_covers_all_paths_once;
          Alcotest.test_case "respects quota" `Quick test_schedule_respects_quota;
          Alcotest.test_case "duration" `Quick test_schedule_duration;
          Alcotest.test_case "bandwidth capped" `Quick test_schedule_bandwidth_capped;
          Alcotest.test_case "invalid rate" `Quick test_schedule_invalid_rate;
        ] );
      ( "report",
        [
          Alcotest.test_case "summary" `Quick test_report_summary;
          Alcotest.test_case "table contents" `Quick test_report_table_contents;
          Alcotest.test_case "top limits rows" `Quick test_report_top_limits_rows;
        ] );
    ]
