(* Property tests for the factor-once serving path: Plan.solve must be
   bit-for-bit the per-call pipeline (rank reduction, then the dense
   normal equations of R* solved afresh per measurement), must keep the
   columns of the dense QR pipeline and agree with its loss rates, and
   Plan.solve_batch must agree row-wise with Plan.solve for every jobs
   value. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Vector = Linalg.Vector
module Qr = Oracle.Qr
module Rng = Nstats.Rng

let vec_bits_equal = Generators.vec_bits_equal
let random_instance = Generators.random_instance

let transmission_of ~nc kept x_star =
  let transmission = Array.make nc 1. in
  Array.iteri
    (fun k j -> transmission.(j) <- Float.min 1. (exp x_star.(k)))
    kept;
  transmission

(* The per-call Phase 2, frozen here as the oracle: the same rank
   reduction, then the normal equations of R* formed densely (the Gram
   R*ᵀR* of the dense panel, R*ᵀy summed over the rows in increasing
   order) and solved by the dense oracle Cholesky in the ascending-degree
   order, read off the dense Gram. *)
let seed_phase2 ~r ~variances ~y_now =
  let { Core.Rank_reduction.kept; removed } =
    Core.Rank_reduction.eliminate r variances
  in
  let r_star = Sparse.dense_cols r kept in
  let rhs =
    Array.init (Array.length kept) (fun j ->
        let acc = ref 0. in
        for i = 0 to Matrix.rows r_star - 1 do
          if Matrix.get r_star i j <> 0. then acc := !acc +. y_now.(i)
        done;
        !acc)
  in
  let x_star = Oracle.Cholesky.solve_ordered (Matrix.gram r_star) rhs in
  let transmission = transmission_of ~nc:(Sparse.cols r) kept x_star in
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

(* The dense Householder QR of R* — Phase 2 as the paper solves it — as
   the accuracy reference for the normal equations, which square R*'s
   condition number: the same kept and removed columns, and loss rates
   within 1e-12. Each case checks a routing matrix of family [seed mod 8]
   with random variances and measurement, and a simulated tree campaign
   through dense Phase 1. *)
let qr_phase2 ~r ~variances ~y_now =
  let { Core.Rank_reduction.kept; removed } =
    Core.Rank_reduction.eliminate r variances
  in
  let x_star = Qr.solve (Sparse.dense_cols r kept) y_now in
  let transmission = transmission_of ~nc:(Sparse.cols r) kept x_star in
  (Array.map (fun t -> 1. -. t) transmission, kept, removed)

let prop_plan_matches_qr =
  QCheck.Test.make ~count:40
    ~name:
      "Plan.solve: the dense QR pipeline's kept columns, loss rates within \
       1e-12 (every routing family, tree campaigns)"
    Generators.seed_arb
    (fun seed ->
      let agrees what ~r ~variances ~y_now =
        let res = Core.Plan.solve (Core.Plan.make ~r ~variances ()) y_now in
        let loss_rates, kept, removed = qr_phase2 ~r ~variances ~y_now in
        let err =
          Vector.norm_inf (Vector.sub loss_rates res.Core.Plan.loss_rates)
        in
        if kept <> res.Core.Plan.kept || removed <> res.Core.Plan.removed then
          QCheck.Test.fail_reportf "%s: kept columns differ" what
        else if not (err <= 1e-12) then
          QCheck.Test.fail_reportf "%s: loss rates differ by %g" what err
        else true
      in
      let r = Generators.random_routing seed in
      let rng = Rng.create (seed + 11) in
      let variances =
        Array.init (Sparse.cols r) (fun _ -> Rng.uniform rng 1e-6 1e-2)
      in
      let y_now =
        Array.init (Sparse.rows r) (fun _ -> -.Rng.uniform rng 0. 0.5)
      in
      agrees "routing family" ~r ~variances ~y_now
      &&
      let r, y_learn, target = Generators.random_tree_trial seed in
      let variances, _ =
        Core.Lia.learn ~jobs:1 ~solver:Core.Lia.Dense ~r ~y:y_learn ()
      in
      agrees "tree campaign" ~r ~variances ~y_now:target.Netsim.Snapshot.y)

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
      prop_solve_batch_matches_solve;
      prop_plan_matches_qr;
    ]

let () =
  Alcotest.run "plan" [ ("serving-path", properties); ("units", unit_tests) ]
