(* Tests for the cross-validation scenario runner: grid parsing, the
   determinism contracts (jobs invariance, seed reproducibility), and
   the fault-matrix property that injected faults surface as typed
   health outcomes, never as exception escapes. *)

module Crossval = Core.Crossval
module Estimator = Core.Estimator
module Faults = Netsim.Faults

(* --- grid parsing ------------------------------------------------------- *)

let test_parse_defaults () =
  match Crossval.parse_grid "" with
  | Error msg -> Alcotest.failf "empty grid rejected: %s" msg
  | Ok g ->
      Alcotest.(check (list string))
        "families" [ "tree"; "planetlab" ] g.Crossval.families;
      Alcotest.(check (list int)) "sizes" [ 15 ] g.Crossval.sizes;
      Alcotest.(check (list string))
        "models" [ "llrd1-calibrated" ] g.Crossval.models;
      Alcotest.(check int) "faults" 1 (List.length g.Crossval.faults)

let test_parse_axes () =
  match
    Crossval.parse_grid
      "family=tree;size=10,20;model=llrd1,internet;fault=none|drop=0.2,seed=7"
  with
  | Error msg -> Alcotest.failf "grid rejected: %s" msg
  | Ok g ->
      Alcotest.(check (list string)) "families" [ "tree" ] g.Crossval.families;
      Alcotest.(check (list int)) "sizes" [ 10; 20 ] g.Crossval.sizes;
      Alcotest.(check (list string))
        "models" [ "llrd1"; "internet" ] g.Crossval.models;
      Alcotest.(check int) "fault alternatives" 2 (List.length g.Crossval.faults);
      Alcotest.(check bool)
        "first fault is none" true
        (Faults.is_none (List.nth g.Crossval.faults 0));
      Alcotest.(check bool)
        "second fault carries clauses" false
        (Faults.is_none (List.nth g.Crossval.faults 1))

let test_parse_rejects () =
  let rejected s =
    match Crossval.parse_grid s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "unknown family" true (rejected "family=moebius");
  Alcotest.(check bool) "unknown model" true (rejected "model=bogus");
  Alcotest.(check bool) "unknown axis" true (rejected "flavour=tree");
  Alcotest.(check bool) "size below 2" true (rejected "size=1");
  Alcotest.(check bool) "malformed size" true (rejected "size=ten");
  Alcotest.(check bool) "empty axis" true (rejected "family=");
  Alcotest.(check bool) "bad fault" true (rejected "fault=warp=0.5");
  Alcotest.(check bool) "missing =" true (rejected "family tree")

let test_scenarios_order () =
  match Crossval.parse_grid "family=tree,planetlab;size=10,12" with
  | Error msg -> Alcotest.failf "grid rejected: %s" msg
  | Ok g ->
      let scen = Crossval.scenarios g ~seeds:[ 5; 6 ] in
      Alcotest.(check int) "count = product" 8 (List.length scen);
      let coords =
        List.map
          (fun s -> (s.Crossval.family, s.Crossval.size, s.Crossval.seed))
          scen
      in
      Alcotest.(check bool)
        "fixed nesting order (family, size, seed)" true
        (coords
        = [
            ("tree", 10, 5);
            ("tree", 10, 6);
            ("tree", 12, 5);
            ("tree", 12, 6);
            ("planetlab", 10, 5);
            ("planetlab", 10, 6);
            ("planetlab", 12, 5);
            ("planetlab", 12, 6);
          ])

(* --- determinism contracts ---------------------------------------------- *)

let tiny_scenarios ?(fault = Faults.none) () =
  let grid =
    {
      Crossval.families = [ "tree" ];
      sizes = [ 12 ];
      models = [ "llrd1-calibrated" ];
      faults = [ fault ];
    }
  in
  Crossval.scenarios grid ~seeds:[ 1; 2 ]

(* strip the telemetry fields, keeping everything the determinism
   contract covers *)
let deterministic_view cells =
  Array.map
    (fun c -> (c.Crossval.scenario, c.Crossval.estimator, c.Crossval.outcome))
    cells

let test_jobs_invariance () =
  let scenarios = tiny_scenarios () in
  let run jobs =
    Crossval.run ~jobs ~snapshots:10 ~estimators:Estimator.all ~scenarios ()
  in
  let base = run 1 in
  let view = deterministic_view base in
  List.iter
    (fun jobs ->
      let cells = run jobs in
      Alcotest.(check bool)
        (Printf.sprintf "outcomes bit-identical at jobs=%d" jobs)
        true
        (deterministic_view cells = view);
      Alcotest.(check string)
        (Printf.sprintf "render byte-identical at jobs=%d" jobs)
        (Crossval.render base) (Crossval.render cells))
    [ 2; 4 ]

let test_seed_reproducibility () =
  let scenarios = tiny_scenarios () in
  let run () =
    Crossval.run ~jobs:2 ~snapshots:10 ~estimators:Estimator.all ~scenarios ()
  in
  Alcotest.(check bool)
    "rerun outcomes bit-identical" true
    (deterministic_view (run ()) = deterministic_view (run ()))

let test_render_shape () =
  let scenarios = tiny_scenarios () in
  let cells =
    Crossval.run ~jobs:2 ~snapshots:10 ~estimators:Estimator.all ~scenarios ()
  in
  Alcotest.(check int)
    "one cell per scenario x estimator"
    (List.length scenarios * List.length Estimator.all)
    (Array.length cells);
  let table = Crossval.render cells in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " row present") true (contains table name))
    Estimator.names;
  (* JSONL: one parseable object per cell, telemetry always present *)
  let lines =
    String.split_on_char '\n' (Crossval.to_jsonl cells)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one JSONL line per cell" (Array.length cells)
    (List.length lines);
  List.iter
    (fun line ->
      match Obs.Json.of_string_opt line with
      | None -> Alcotest.failf "unparseable JSONL line: %s" line
      | Some json ->
          Alcotest.(check bool)
            "wall_s present" true
            (Obs.Json.member "wall_s" json <> None);
          Alcotest.(check bool)
            "estimator present" true
            (Obs.Json.member "estimator" json <> None))
    lines

(* --- the fault matrix --------------------------------------------------- *)

(* Whatever the injected fault, every cell lands as a typed outcome, a
   refusal or a skip says why, and the whole run is reproducible. *)
let prop_fault_matrix_typed_outcomes =
  QCheck.Test.make ~count:8 ~name:"faulted cells are typed and reproducible"
    Generators.seed_arb (fun seed ->
      let fault = Generators.random_fault_spec seed in
      let scenarios =
        [
          {
            Crossval.family = "tree";
            size = 12;
            model = "llrd1-calibrated";
            fault;
            seed;
          };
        ]
      in
      let estimators =
        List.filter_map Estimator.find
          [ "minc"; "em"; "mils"; "scfs"; "clink"; "fourier"; "lia-dense" ]
      in
      let run () = Crossval.run ~jobs:2 ~snapshots:10 ~estimators ~scenarios () in
      let cells = run () in
      Array.for_all
        (fun c ->
          match c.Crossval.outcome with
          | Crossval.Scored _ -> true
          | Crossval.Refused reason | Crossval.Skipped reason ->
              String.length reason > 0)
        cells
      && deterministic_view (run ()) = deterministic_view cells)

let () =
  Alcotest.run "crossval"
    [
      ( "grid",
        [
          Alcotest.test_case "defaults" `Quick test_parse_defaults;
          Alcotest.test_case "axes" `Quick test_parse_axes;
          Alcotest.test_case "rejects" `Quick test_parse_rejects;
          Alcotest.test_case "scenario order" `Quick test_scenarios_order;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "jobs invariance" `Slow test_jobs_invariance;
          Alcotest.test_case "seed reproducibility" `Slow
            test_seed_reproducibility;
          Alcotest.test_case "render shape" `Slow test_render_shape;
        ] );
      ( "fault-matrix",
        List.map QCheck_alcotest.to_alcotest
          [ prop_fault_matrix_typed_outcomes ] );
    ]
