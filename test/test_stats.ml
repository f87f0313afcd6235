(* Tests for the statistics substrate: RNG determinism and distribution
   sanity, descriptive statistics, ECDF. *)

module Rng = Nstats.Rng
module D = Nstats.Descriptive
module Ecdf = Nstats.Ecdf

let check_float = Alcotest.(check (float 1e-9))

let close ?(tol = 1e-6) msg expected got = Alcotest.(check (float tol)) msg expected got

(* --- Rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.uint64 a) (Rng.uint64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint64 a = Rng.uint64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_copy () =
  let a = Rng.create 7 in
  ignore (Rng.uint64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.uint64 a) (Rng.uint64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  let matches = ref 0 in
  for _ = 1 to 64 do
    if Rng.uint64 a = Rng.uint64 b then incr matches
  done;
  Alcotest.(check bool) "split streams differ" true (!matches < 4)

let test_rng_float_range () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_float_mean () =
  let rng = Rng.create 13 in
  let xs = Array.init 100_000 (fun _ -> Rng.float rng) in
  close ~tol:0.01 "uniform mean" 0.5 (D.mean xs);
  close ~tol:0.01 "uniform variance" (1. /. 12.) (D.variance xs)

let test_rng_int_uniform () =
  let rng = Rng.create 17 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Rng.int rng 10 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c ->
      close ~tol:0.01 "each bucket ~10%" 0.1 (float_of_int c /. float_of_int n))
    counts

let test_rng_int_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n = 0" (Invalid_argument "Rng.int: non-positive bound")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_bool_bias () =
  let rng = Rng.create 19 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bool rng 0.3 then incr hits
  done;
  close ~tol:0.01 "bernoulli 0.3" 0.3 (float_of_int !hits /. float_of_int n)

let test_rng_geometric_mean () =
  let rng = Rng.create 23 in
  let p = 0.25 in
  let xs = Array.init 50_000 (fun _ -> float_of_int (Rng.geometric rng p)) in
  (* failures before success: mean (1-p)/p = 3 *)
  close ~tol:0.1 "geometric mean" 3. (D.mean xs)

let test_rng_geometric_certain () =
  let rng = Rng.create 1 in
  Alcotest.(check int) "p=1 gives 0" 0 (Rng.geometric rng 1.)

let test_rng_binomial_moments () =
  let rng = Rng.create 29 in
  let check n p =
    let xs = Array.init 20_000 (fun _ -> float_of_int (Rng.binomial rng n p)) in
    let nf = float_of_int n in
    close ~tol:(0.05 *. nf *. p) "binomial mean" (nf *. p) (D.mean xs);
    close
      ~tol:(0.15 *. nf *. p *. (1. -. p))
      "binomial variance"
      (nf *. p *. (1. -. p))
      (D.variance xs)
  in
  check 10 0.3;
  (* large-n regime exercises the normal approximation *)
  check 1000 0.1

let test_rng_binomial_edges () =
  let rng = Rng.create 31 in
  Alcotest.(check int) "p=0" 0 (Rng.binomial rng 100 0.);
  Alcotest.(check int) "p=1" 100 (Rng.binomial rng 100 1.);
  Alcotest.(check int) "n=0" 0 (Rng.binomial rng 0 0.5);
  for _ = 1 to 1000 do
    let x = Rng.binomial rng 50 0.5 in
    Alcotest.(check bool) "in range" true (x >= 0 && x <= 50)
  done

let test_rng_exponential () =
  let rng = Rng.create 37 in
  let xs = Array.init 50_000 (fun _ -> Rng.exponential rng 2.) in
  close ~tol:0.02 "exponential mean 1/rate" 0.5 (D.mean xs)

let test_rng_gaussian () =
  let rng = Rng.create 41 in
  let xs = Array.init 100_000 (fun _ -> Rng.gaussian rng) in
  close ~tol:0.02 "gaussian mean" 0. (D.mean xs);
  close ~tol:0.03 "gaussian variance" 1. (D.variance xs)

let test_rng_pareto_support () =
  let rng = Rng.create 43 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "pareto >= xmin" true (Rng.pareto rng 2.5 1.5 >= 1.5)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create 47 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 (fun i -> i)) sorted

let test_rng_sample_without_replacement () =
  let rng = Rng.create 53 in
  let s = Rng.sample_without_replacement rng 10 20 in
  Alcotest.(check int) "size" 10 (Array.length s);
  let sorted = Array.copy s in
  Array.sort compare sorted;
  let distinct = Array.length sorted = 10 &&
    Array.for_all (fun x -> x >= 0 && x < 20) sorted in
  let rec no_dup i = i >= 9 || (sorted.(i) <> sorted.(i + 1) && no_dup (i + 1)) in
  Alcotest.(check bool) "distinct and in range" true (distinct && no_dup 0)

(* --- Descriptive -------------------------------------------------------- *)

let test_descriptive_basic () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (D.mean xs);
  close ~tol:1e-9 "variance" (32. /. 7.) (D.variance xs);
  check_float "min" 2. (D.minimum xs);
  check_float "max" 9. (D.maximum xs);
  check_float "median" 4.5 (D.median xs)

let test_descriptive_quantile () =
  let xs = [| 1.; 2.; 3.; 4. |] in
  check_float "q0" 1. (D.quantile xs 0.);
  check_float "q1" 4. (D.quantile xs 1.);
  check_float "q0.5 interpolates" 2.5 (D.quantile xs 0.5);
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Descriptive.quantile: q out of [0,1]") (fun () ->
      ignore (D.quantile xs 1.5))

let test_descriptive_quantile_unsorted () =
  let xs = [| 4.; 1.; 3.; 2. |] in
  check_float "median of unsorted" 2.5 (D.median xs)

let test_descriptive_covariance_sign () =
  let xs = [| 1.; 2.; 3. |] in
  Alcotest.(check bool) "positive with itself" true (D.covariance xs xs > 0.);
  let neg = D.covariance xs [| 3.; 2.; 1. |] in
  Alcotest.(check bool) "negative when anti-aligned" true (neg < 0.);
  check_float "correlation bound" (-1.) (D.correlation xs [| 3.; 2.; 1. |])

let test_spearman () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  (* any monotone transform has rank correlation exactly 1 *)
  let ys = Array.map (fun x -> exp x) xs in
  check_float "monotone" 1. (D.spearman xs ys);
  check_float "anti-monotone" (-1.) (D.spearman xs (Array.map (fun x -> -.x) ys));
  (* ties handled via mid-ranks: still well-defined and bounded *)
  let tied = [| 1.; 1.; 2.; 2.; 3. |] in
  let s = D.spearman tied [| 1.; 2.; 3.; 4.; 5. |] in
  Alcotest.(check bool) "ties bounded" true (s > 0.8 && s <= 1.)

let test_covariance_matrix () =
  (* 3 observations of 2 variables *)
  let obs = Linalg.Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |]; [| 3.; 6. |] |] in
  let sigma = Oracle.Covariance.matrix obs in
  check_float "var x" 1. (Linalg.Matrix.get sigma 0 0);
  check_float "var y" 4. (Linalg.Matrix.get sigma 1 1);
  check_float "cov xy" 2. (Linalg.Matrix.get sigma 0 1);
  Alcotest.(check bool) "symmetric" true (Linalg.Matrix.is_symmetric sigma)

let test_mean_vector () =
  let obs = Linalg.Matrix.of_arrays [| [| 1.; 10. |]; [| 3.; 30. |] |] in
  Alcotest.(check bool) "mean vector" true
    (Linalg.Vector.approx_equal [| 2.; 20. |] (D.mean_vector obs))

(* --- Ecdf --------------------------------------------------------------- *)

let test_ecdf_eval () =
  let e = Ecdf.of_sample [| 1.; 2.; 2.; 3. |] in
  check_float "below support" 0. (Ecdf.eval e 0.);
  check_float "at 1" 0.25 (Ecdf.eval e 1.);
  check_float "at 2" 0.75 (Ecdf.eval e 2.);
  check_float "at 2.5" 0.75 (Ecdf.eval e 2.5);
  check_float "at max" 1. (Ecdf.eval e 3.);
  check_float "above support" 1. (Ecdf.eval e 100.)

let test_ecdf_inverse () =
  let e = Ecdf.of_sample [| 10.; 20.; 30.; 40. |] in
  check_float "q 0.25" 10. (Ecdf.inverse e 0.25);
  check_float "q 0.5" 20. (Ecdf.inverse e 0.5);
  check_float "q 1.0" 40. (Ecdf.inverse e 1.0)

let test_ecdf_curve () =
  let e = Ecdf.of_sample (Array.init 100 (fun i -> float_of_int i)) in
  let curve = Ecdf.curve ~points:11 e in
  Alcotest.(check int) "points" 11 (List.length curve);
  let x0, f0 = List.hd curve in
  check_float "starts at min" 0. x0;
  close ~tol:0.02 "F at min" 0.01 f0;
  let xn, fn = List.nth curve 10 in
  check_float "ends at max" 99. xn;
  check_float "F at max" 1. fn

let test_ecdf_monotone () =
  let e = Ecdf.of_sample [| 5.; 1.; 3.; 3.; 2. |] in
  let prev = ref (-1.) in
  List.iter
    (fun (_, f) ->
      Alcotest.(check bool) "monotone" true (f >= !prev);
      prev := f)
    (Ecdf.curve ~points:30 e)

(* --- Asciiplot ------------------------------------------------------------ *)

let test_plot_renders_points () =
  let c = Nstats.Asciiplot.create ~width:20 ~height:8 () in
  Nstats.Asciiplot.scatter c [ (0., 0.); (1., 1.) ];
  let out = Nstats.Asciiplot.render c in
  Alcotest.(check bool) "contains marks" true (String.contains out '*');
  Alcotest.(check bool) "frame present" true (String.contains out '\xe2' || String.contains out '|')

let test_plot_empty_canvas () =
  let c = Nstats.Asciiplot.create () in
  let out = Nstats.Asciiplot.render c in
  Alcotest.(check bool) "renders" true (String.length out > 0);
  Alcotest.(check bool) "no marks" true (not (String.contains out '*'))

let test_plot_too_small () =
  Alcotest.check_raises "tiny canvas"
    (Invalid_argument "Asciiplot.create: canvas too small") (fun () ->
      ignore (Nstats.Asciiplot.create ~width:2 ~height:2 ()))

let test_plot_cdf_shape () =
  let e = Ecdf.of_sample (Array.init 100 float_of_int) in
  let out = Nstats.Asciiplot.plot_cdf e in
  Alcotest.(check bool) "renders a curve" true (String.contains out '+')

let test_plot_series_multiple_marks () =
  let out =
    Nstats.Asciiplot.plot_series
      [ ('a', [ (0., 0.); (10., 5.) ]); ('b', [ (0., 5.); (10., 0.) ]) ]
  in
  Alcotest.(check bool) "mark a" true (String.contains out 'a');
  Alcotest.(check bool) "mark b" true (String.contains out 'b')

(* --- Properties ---------------------------------------------------------- *)

let prop_quantile_within_range =
  QCheck.Test.make ~count:200 ~name:"quantile lies within sample range"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 40) (float_range (-50.) 50.))
              (float_range 0. 1.))
    (fun (xs, q) ->
      let v = D.quantile xs q in
      v >= D.minimum xs && v <= D.maximum xs)

let prop_ecdf_bounds =
  QCheck.Test.make ~count:200 ~name:"ecdf eval in [0,1]"
    QCheck.(pair (array_of_size (QCheck.Gen.int_range 1 30) (float_range (-10.) 10.))
              (float_range (-20.) 20.))
    (fun (xs, x) ->
      let f = Ecdf.eval (Ecdf.of_sample xs) x in
      f >= 0. && f <= 1.)

let prop_binomial_range =
  QCheck.Test.make ~count:200 ~name:"binomial result within [0,n]"
    QCheck.(triple small_nat (float_range 0. 1.) int)
    (fun (n, p, seed) ->
      let rng = Rng.create seed in
      let x = Rng.binomial rng n p in
      x >= 0 && x <= n)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_quantile_within_range; prop_ecdf_bounds; prop_binomial_range ]

let () =
  Alcotest.run "stats"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "float moments" `Quick test_rng_float_mean;
          Alcotest.test_case "int uniform" `Quick test_rng_int_uniform;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "bool bias" `Quick test_rng_bool_bias;
          Alcotest.test_case "geometric mean" `Quick test_rng_geometric_mean;
          Alcotest.test_case "geometric certain" `Quick test_rng_geometric_certain;
          Alcotest.test_case "binomial moments" `Slow test_rng_binomial_moments;
          Alcotest.test_case "binomial edges" `Quick test_rng_binomial_edges;
          Alcotest.test_case "exponential" `Quick test_rng_exponential;
          Alcotest.test_case "gaussian" `Quick test_rng_gaussian;
          Alcotest.test_case "pareto support" `Quick test_rng_pareto_support;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutes;
          Alcotest.test_case "sample without replacement" `Quick
            test_rng_sample_without_replacement;
        ] );
      ( "descriptive",
        [
          Alcotest.test_case "basic" `Quick test_descriptive_basic;
          Alcotest.test_case "quantile" `Quick test_descriptive_quantile;
          Alcotest.test_case "quantile unsorted" `Quick test_descriptive_quantile_unsorted;
          Alcotest.test_case "covariance sign" `Quick test_descriptive_covariance_sign;
          Alcotest.test_case "spearman" `Quick test_spearman;
          Alcotest.test_case "covariance matrix" `Quick test_covariance_matrix;
          Alcotest.test_case "mean vector" `Quick test_mean_vector;
        ] );
      ( "ecdf",
        [
          Alcotest.test_case "eval" `Quick test_ecdf_eval;
          Alcotest.test_case "inverse" `Quick test_ecdf_inverse;
          Alcotest.test_case "curve" `Quick test_ecdf_curve;
          Alcotest.test_case "monotone" `Quick test_ecdf_monotone;
        ] );
      ( "asciiplot",
        [
          Alcotest.test_case "renders points" `Quick test_plot_renders_points;
          Alcotest.test_case "empty canvas" `Quick test_plot_empty_canvas;
          Alcotest.test_case "too small" `Quick test_plot_too_small;
          Alcotest.test_case "cdf shape" `Quick test_plot_cdf_shape;
          Alcotest.test_case "series marks" `Quick test_plot_series_multiple_marks;
        ] );
      ("properties", properties);
    ]
