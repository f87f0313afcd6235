(* Property tests for the factor-once serving path: Plan.solve must be
   bit-for-bit the seed per-call pipeline (rank reduction + fresh dense QR
   per measurement), Plan.solve_batch must agree row-wise with Plan.solve
   for every jobs value, and the pool-parallel QR factorization itself
   must be jobs-invariant. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Qr = Linalg.Qr
module Rng = Nstats.Rng

let vec_bits_equal = Generators.vec_bits_equal
let matrix_bits_equal = Generators.matrix_bits_equal
let random_instance = Generators.random_instance

(* The seed implementation of Lia.infer_with_variances, frozen here as the
   oracle: everything recomputed per call, sequential QR. *)
let seed_phase2 ~r ~variances ~y_now =
  let nc = Sparse.cols r in
  let { Core.Rank_reduction.kept; removed } =
    Core.Rank_reduction.eliminate r variances
  in
  let r_star = Sparse.dense_cols r kept in
  let x_star = Qr.solve ~jobs:1 r_star y_now in
  let transmission = Array.make nc 1. in
  Array.iteri
    (fun k j -> transmission.(j) <- Float.min 1. (exp x_star.(k)))
    kept;
  let loss_rates = Array.map (fun t -> 1. -. t) transmission in
  (transmission, loss_rates, kept, removed)

let prop_plan_solve_matches_seed =
  QCheck.Test.make ~count:20
    ~name:"Plan.solve: bit-for-bit = seed per-call pipeline"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, variances, y = random_instance seed in
      let plan = Core.Plan.make ~r ~variances () in
      let y_now = Matrix.row y 0 in
      let res = Core.Plan.solve plan y_now in
      let transmission, loss_rates, kept, removed =
        seed_phase2 ~r ~variances ~y_now
      in
      vec_bits_equal transmission res.Core.Plan.transmission
      && vec_bits_equal loss_rates res.Core.Plan.loss_rates
      && kept = res.Core.Plan.kept
      && removed = res.Core.Plan.removed
      && vec_bits_equal variances res.Core.Plan.variances)

let prop_infer_with_variances_matches_plan =
  QCheck.Test.make ~count:10
    ~name:"Lia.infer_with_variances: still the seed pipeline"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, variances, y = random_instance seed in
      let y_now = Matrix.row y 0 in
      let res = Core.Lia.infer_with_variances ~r ~variances ~y_now in
      let transmission, loss_rates, _, _ = seed_phase2 ~r ~variances ~y_now in
      vec_bits_equal transmission res.Core.Lia.transmission
      && vec_bits_equal loss_rates res.Core.Lia.loss_rates)

let prop_solve_batch_matches_solve =
  QCheck.Test.make ~count:20
    ~name:"Plan.solve_batch: row l = Plan.solve on snapshot l, jobs in {1,2,4}"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, variances, y = random_instance seed in
      let plan = Core.Plan.make ~r ~variances () in
      let singles =
        Array.init (Matrix.rows y) (fun l -> Core.Plan.solve plan (Matrix.row y l))
      in
      List.for_all
        (fun jobs ->
          let batch = Core.Plan.solve_batch ~jobs plan y in
          Array.length batch = Array.length singles
          && Array.for_all2
               (fun (b : Core.Plan.result) (s : Core.Plan.result) ->
                 vec_bits_equal b.Core.Plan.transmission s.Core.Plan.transmission
                 && vec_bits_equal b.Core.Plan.loss_rates s.Core.Plan.loss_rates)
               batch singles)
        [ 1; 2; 4 ])

let random_dense = Generators.random_dense

let prop_parallel_qr_jobs_invariant =
  QCheck.Test.make ~count:30
    ~name:"Qr.factorize(+pivoted): jobs in {2,4} bit-for-bit = jobs 1"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let a = random_dense seed in
      let f1 = Qr.factorize ~jobs:1 a and p1 = Qr.factorize_pivoted ~jobs:1 a in
      List.for_all
        (fun jobs ->
          let f = Qr.factorize ~jobs a and p = Qr.factorize_pivoted ~jobs a in
          matrix_bits_equal (Qr.r f1) (Qr.r f)
          && matrix_bits_equal (Qr.r p1) (Qr.r p)
          && Qr.pivots p1 = Qr.pivots p)
        [ 2; 4 ])

let prop_least_squares_batch_matches_columns =
  QCheck.Test.make ~count:30
    ~name:"Qr.least_squares_batch: column c = least_squares on column c"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let a = random_dense seed in
      let rng = Rng.create (seed + 77) in
      let nrhs = 1 + (seed mod 13) in
      let b =
        Matrix.init (Matrix.rows a) nrhs (fun _ _ -> Rng.uniform rng (-1.) 1.)
      in
      let f = Qr.factorize a in
      match Qr.least_squares_batch f b with
      | x ->
          let ok = ref (Matrix.rows x = Matrix.cols a && Matrix.cols x = nrhs) in
          for c = 0 to nrhs - 1 do
            if not (vec_bits_equal (Qr.least_squares f (Matrix.col b c)) (Matrix.col x c))
            then ok := false
          done;
          !ok
      | exception Failure _ ->
          (* near-singular draw: the per-column path must refuse too *)
          (match Qr.least_squares f (Matrix.col b 0) with
          | _ -> false
          | exception Failure _ -> true))

(* --- unit tests: rtol plumbing and the unsafe accessors ----------------- *)

let test_solve_r_rtol () =
  (* diag(1, 1e-20): far below the default 1e-13 relative cutoff *)
  let a = Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 1e-20 |] |] in
  let f = Qr.factorize a in
  (match Qr.solve_r f [| 1.; 1e-20 |] with
  | _ -> Alcotest.fail "expected singular failure at the default rtol"
  | exception Failure _ -> ());
  let x = Qr.solve_r ~rtol:1e-25 f [| 1.; 1e-20 |] in
  (* solve_r consumes the already-transformed RHS, so check the residual
     of the triangular system rather than hard-coding a solution *)
  let rf = Qr.r f in
  let resid i c = Float.abs ((Matrix.get rf i 0 *. x.(0)) +. (Matrix.get rf i 1 *. x.(1)) -. c) in
  Alcotest.(check bool) "loosened rtol solves" true
    (resid 0 1. < 1e-9 && resid 1 1e-20 < 1e-9);
  (* the same knob reaches solve and least_squares *)
  (match Qr.solve a [| 1.; 1e-20 |] with
  | _ -> Alcotest.fail "expected singular failure through solve"
  | exception Failure _ -> ());
  let x = Qr.solve ~rtol:1e-25 a [| 1.; 1e-20 |] in
  Alcotest.(check bool) "solve ~rtol" true (Float.abs (x.(0) -. 1.) < 1e-9)

let test_cols_index_matches_get () =
  let s =
    Sparse.create ~cols:5 [| [| 0; 2 |]; [| 2; 4 |]; [||]; [| 0; 1; 2; 3; 4 |] |]
  in
  let index = Sparse.cols_index s in
  Alcotest.(check int) "one entry per column" 5 (Array.length index);
  for j = 0 to 4 do
    let expected =
      Array.of_list
        (List.filter (fun i -> Sparse.get s i j) [ 0; 1; 2; 3 ])
    in
    Alcotest.(check (array int))
      (Printf.sprintf "column %d" j)
      expected index.(j)
  done

let unit_tests =
  [
    Alcotest.test_case "qr: solve_r/least_squares/solve honour rtol" `Quick
      test_solve_r_rtol;
    Alcotest.test_case "sparse: cols_index agrees with get" `Quick
      test_cols_index_matches_get;
  ]

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_plan_solve_matches_seed;
      prop_infer_with_variances_matches_plan;
      prop_solve_batch_matches_solve;
      prop_parallel_qr_jobs_invariant;
      prop_least_squares_batch_matches_columns;
    ]

let () =
  Alcotest.run "plan" [ ("serving-path", properties); ("units", unit_tests) ]
