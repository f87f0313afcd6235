(* A dedicated property-test suite for the end-to-end invariants of the
   system: LIA output well-formedness, simulator conservation laws,
   augmented-matrix algebra, serialization round-trips on random
   topologies, and Gilbert-chain stationarity across its parameter
   range. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Rng = Nstats.Rng
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator

let random_tree_trial = Generators.random_tree_trial

(* --- LIA output invariants ------------------------------------------------ *)

let prop_lia_output_well_formed =
  QCheck.Test.make ~count:12 ~name:"LIA: rates in range, kept/removed partition"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, target = random_tree_trial seed in
      let res = Core.Lia.infer ~r ~y_learn ~y_now:target.Snapshot.y () in
      let nc = Sparse.cols r in
      let seen = Array.make nc 0 in
      Array.iter (fun j -> seen.(j) <- seen.(j) + 1) res.Core.Lia.kept;
      Array.iter (fun j -> seen.(j) <- seen.(j) + 1) res.Core.Lia.removed;
      Array.for_all (fun c -> c = 1) seen
      && Array.for_all (fun t -> t > 0. && t <= 1.) res.Core.Lia.transmission
      && Array.for_all (fun l -> l >= 0. && l < 1.) res.Core.Lia.loss_rates
      && Array.for_all (fun v -> v >= 0.) res.Core.Lia.variances
      && Array.for_all
           (fun j -> res.Core.Lia.loss_rates.(j) = 0.)
           res.Core.Lia.removed)

(* Phase 2 orders variances on the grid g = 1e-12 · max |v|: a column
   counts as round (v / g), and inside a grid cell the higher id comes
   first. *)
let prop_lia_kept_descending_variance =
  QCheck.Test.make ~count:12
    ~name:
      "LIA: kept columns in descending variance order on the 1e-12 relative \
       grid, higher id first inside a cell"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn, target = random_tree_trial seed in
      let res = Core.Lia.infer ~r ~y_learn ~y_now:target.Snapshot.y () in
      let v = res.Core.Lia.variances in
      let g = 1e-12 *. Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0. v in
      let key j = if g = 0. then v.(j) else Float.round (v.(j) /. g) in
      let rec descending = function
        | a :: (b :: _ as rest) ->
            (key a > key b || (key a = key b && a > b)) && descending rest
        | _ -> true
      in
      Array.for_all Float.is_finite v
      && descending (Array.to_list res.Core.Lia.kept))

(* --- Simulator conservation ------------------------------------------------ *)

let prop_snapshot_conservation =
  QCheck.Test.make ~count:20 ~name:"snapshot: received <= S and y = log(rx/S)"
    QCheck.(pair (int_range 1 5000) (int_range 50 400))
    (fun (seed, probes) ->
      let rng = Rng.create seed in
      let tb = Topology.Tree_gen.generate rng ~nodes:40 ~max_branching:4 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let config =
        { (Snapshot.default_config Lossmodel.Loss_model.llrd1) with
          Snapshot.probes }
      in
      let statuses = Snapshot.draw_statuses rng config ~links:(Sparse.cols r) in
      let s = Snapshot.generate rng config ~congested:statuses r in
      let ok = ref true in
      Array.iteri
        (fun i rx ->
          if rx < 0 || rx > probes then ok := false;
          let expected =
            log (Float.max 0.5 (float_of_int rx) /. float_of_int probes)
          in
          if Float.abs (expected -. s.Snapshot.y.(i)) > 1e-12 then ok := false)
        s.Snapshot.received;
      !ok
      && Array.for_all (fun x -> x >= 0. && x <= 1.) s.Snapshot.realized
      && Array.for_all (fun x -> x >= 0. && x <= 1.) s.Snapshot.loss_rates)

let prop_shared_chain_dominance =
  QCheck.Test.make ~count:20
    ~name:"snapshot: a path cannot deliver more than its worst link allows"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let rng = Rng.create seed in
      let tb = Topology.Tree_gen.generate rng ~nodes:40 ~max_branching:4 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let config = Snapshot.default_config Lossmodel.Loss_model.llrd1 in
      let statuses = Snapshot.draw_statuses rng config ~links:(Sparse.cols r) in
      let s = Snapshot.generate rng config ~congested:statuses r in
      let ok = ref true in
      for i = 0 to Sparse.rows r - 1 do
        let min_link_trans =
          Array.fold_left
            (fun acc j -> Float.min acc (1. -. s.Snapshot.realized.(j)))
            1. (Sparse.row r i)
        in
        let path_trans = float_of_int s.Snapshot.received.(i) /. 1000. in
        if path_trans > min_link_trans +. 1e-9 then ok := false
      done;
      !ok)

(* --- Augmented matrix algebra ----------------------------------------------- *)

let prop_augmented_row_count =
  QCheck.Test.make ~count:30 ~name:"augmented: row count and diagonal rows"
    QCheck.(int_range 1 2000)
    (fun seed ->
      let rng = Rng.create seed in
      let tb = Topology.Tree_gen.generate rng ~nodes:(20 + (seed mod 40)) ~max_branching:4 () in
      let red = Topology.Testbed.routing tb in
      let r = red.Topology.Routing.matrix in
      let a = Oracle.Augmented.build r in
      let np = Sparse.rows r in
      Sparse.rows a = np * (np + 1) / 2
      && Array.for_all
           (fun i ->
             Sparse.row a (Core.Augmented.row_index ~np ~i ~j:i) = Sparse.row r i)
           (Array.init np (fun i -> i)))

let prop_row_product_symmetric =
  QCheck.Test.make ~count:100 ~name:"row product is symmetric and idempotent"
    QCheck.(pair (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 20))
              (list_of_size (QCheck.Gen.int_range 0 10) (int_range 0 20)))
    (fun (l1, l2) ->
      let mk l = Array.of_list (List.sort_uniq compare l) in
      let r1 = mk l1 and r2 = mk l2 in
      Sparse.row_product r1 r2 = Sparse.row_product r2 r1
      && Sparse.row_product r1 r1 = r1)

(* --- Serialization round-trips on random topologies -------------------------- *)

let prop_serial_roundtrip_random =
  QCheck.Test.make ~count:15 ~name:"testbed serialization round-trips"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let rng = Rng.create seed in
      let tb =
        if seed mod 2 = 0 then Topology.Tree_gen.generate rng ~nodes:40 ~max_branching:5 ()
        else Topology.Waxman.generate rng ~nodes:40 ~hosts:6 ()
      in
      let tb' = Topology.Serial.of_string (Topology.Serial.to_string tb) in
      let r = (Topology.Testbed.routing tb).Topology.Routing.matrix in
      let r' = (Topology.Testbed.routing tb').Topology.Routing.matrix in
      Sparse.equal r r')

(* --- Gilbert stationarity across parameters ----------------------------------- *)

let prop_gilbert_mean_rate =
  QCheck.Test.make ~count:15 ~name:"gilbert: realized rate matches target"
    QCheck.(pair (float_range 0.01 0.5) (float_range 0. 0.8))
    (fun (rate, stay_bad) ->
      let rng = Rng.create 99 in
      let chain = Lossmodel.Gilbert.make ~stay_bad ~loss_rate:rate () in
      let total = ref 0 in
      let steps = 2000 and reps = 40 in
      for _ = 1 to reps do
        total := !total + Lossmodel.Gilbert.losses rng chain ~steps
      done;
      let realized = float_of_int !total /. float_of_int (steps * reps) in
      Float.abs (realized -. rate) < 0.05 +. (0.2 *. rate))

(* --- Variance estimation invariance ------------------------------------------- *)

let prop_variance_estimate_scale =
  QCheck.Test.make ~count:10
    ~name:"variance estimator: scaling Y by c scales v by c^2"
    QCheck.(pair (int_range 1 3000) (float_range 0.5 3.))
    (fun (seed, c) ->
      (* drop_negative off: near-zero covariances may flip sign under
         scaled floating point and change the dropped row set, which is
         correct behaviour but breaks exact linearity *)
      let r, y_learn, _ = random_tree_trial seed in
      let v1 =
        Core.Variance_estimator.estimate ~drop_negative:false ~r ~y:y_learn ()
      in
      let m = Matrix.rows y_learn and np = Matrix.cols y_learn in
      let scaled = Matrix.init m np (fun l i -> c *. Matrix.get y_learn l i) in
      let v2 =
        Core.Variance_estimator.estimate ~drop_negative:false ~r ~y:scaled ()
      in
      let ok = ref true in
      Array.iteri
        (fun k v ->
          let expected = c *. c *. v in
          if Float.abs (v2.(k) -. expected) > 1e-6 *. (1. +. expected) then
            ok := false)
        v1;
      !ok)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_lia_output_well_formed;
      prop_lia_kept_descending_variance;
      prop_snapshot_conservation;
      prop_shared_chain_dominance;
      prop_augmented_row_count;
      prop_row_product_symmetric;
      prop_serial_roundtrip_random;
      prop_gilbert_mean_rate;
      prop_variance_estimate_scale;
    ]

let () = Alcotest.run "properties" [ ("system-invariants", properties) ]
