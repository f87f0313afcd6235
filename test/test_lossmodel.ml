(* Tests for the LLRD loss models and the Gilbert / Bernoulli loss
   processes. *)

module Rng = Nstats.Rng
module Loss_model = Lossmodel.Loss_model
module Gilbert = Lossmodel.Gilbert
module Bernoulli = Lossmodel.Bernoulli

let close ?(tol = 1e-6) msg expected got = Alcotest.(check (float tol)) msg expected got

(* --- Loss_model ---------------------------------------------------------- *)

let test_llrd1_ranges () =
  let rng = Rng.create 1 in
  for _ = 1 to 1000 do
    let g = Loss_model.draw_good rng Loss_model.llrd1 in
    Alcotest.(check bool) "good in [0,0.002]" true (g >= 0. && g <= 0.002);
    let c = Loss_model.draw_congested rng Loss_model.llrd1 in
    Alcotest.(check bool) "congested in [0.05,0.2]" true (c >= 0.05 && c <= 0.2)
  done

let test_llrd2_ranges () =
  let rng = Rng.create 2 in
  for _ = 1 to 1000 do
    let c = Loss_model.draw_congested rng Loss_model.llrd2 in
    Alcotest.(check bool) "congested in [0.002,1]" true (c >= 0.002 && c <= 1.)
  done

let test_threshold_classification () =
  Alcotest.(check bool) "below threshold" false
    (Loss_model.is_congested Loss_model.llrd1 0.001);
  Alcotest.(check bool) "above threshold" true
    (Loss_model.is_congested Loss_model.llrd1 0.01);
  Alcotest.(check bool) "at threshold" false
    (Loss_model.is_congested Loss_model.llrd1 0.002)

let test_custom_validation () =
  Alcotest.check_raises "inverted range"
    (Invalid_argument "Loss_model.custom: inverted range") (fun () ->
      ignore
        (Loss_model.custom ~name:"bad" ~good:(0.5, 0.1) ~congested:(0.5, 0.9)
           ~threshold:0.2));
  Alcotest.check_raises "rate above 1"
    (Invalid_argument "Loss_model.custom: rates must lie in [0,1]") (fun () ->
      ignore
        (Loss_model.custom ~name:"bad" ~good:(0., 0.1) ~congested:(0.5, 1.5)
           ~threshold:0.2))

(* --- Gilbert -------------------------------------------------------------- *)

let test_gilbert_stationary () =
  let g = Gilbert.make ~loss_rate:0.1 () in
  close ~tol:1e-9 "stationary matches target" 0.1 (Gilbert.stationary_bad g);
  let g2 = Gilbert.make ~loss_rate:0. () in
  close "zero rate" 0. (Gilbert.stationary_bad g2)

let test_gilbert_defaults () =
  let g = Gilbert.make ~loss_rate:0.1 () in
  close ~tol:1e-9 "stay_bad is 0.35" 0.35 g.Gilbert.stay_bad;
  (* to_bad = 0.65 * 0.1 / 0.9 *)
  close ~tol:1e-9 "to_bad formula" (0.65 *. 0.1 /. 0.9) g.Gilbert.to_bad

let test_gilbert_clamped () =
  (* extreme rates clamp to_bad at 1; realized rate saturates below target *)
  let g = Gilbert.make ~loss_rate:0.99 () in
  Alcotest.(check bool) "clamped" true (g.Gilbert.to_bad <= 1.);
  Alcotest.(check bool) "still very lossy" true (Gilbert.stationary_bad g > 0.5)

let test_gilbert_invalid () =
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Gilbert.make: loss rate out of [0,1]") (fun () ->
      ignore (Gilbert.make ~loss_rate:1.5 ()));
  Alcotest.check_raises "stay_bad out of range"
    (Invalid_argument "Gilbert.make: stay_bad out of [0,1)") (fun () ->
      ignore (Gilbert.make ~stay_bad:1. ~loss_rate:0.5 ()))

let test_gilbert_intervals_valid () =
  let rng = Rng.create 11 in
  let g = Gilbert.make ~loss_rate:0.2 () in
  for _ = 1 to 50 do
    let ivs = Gilbert.bad_intervals rng g ~steps:500 in
    let rec check_sorted prev = function
      | [] -> true
      | (a, b) :: rest -> a >= prev && b > a && b <= 500 && check_sorted b rest
    in
    Alcotest.(check bool) "disjoint, ordered, in range" true (check_sorted 0 ivs)
  done

let test_gilbert_loss_count_mean () =
  let rng = Rng.create 13 in
  let g = Gilbert.make ~loss_rate:0.1 () in
  let xs =
    Array.init 3000 (fun _ -> float_of_int (Gilbert.losses rng g ~steps:1000))
  in
  close ~tol:3. "mean losses ~ rate * steps" 100. (Nstats.Descriptive.mean xs)

let test_gilbert_burstiness () =
  (* Gilbert losses must be over-dispersed relative to Bernoulli: this is
     the property that gives congested links their high variance. *)
  let rng = Rng.create 17 in
  let g = Gilbert.make ~loss_rate:0.1 () in
  let draws =
    Array.init 3000 (fun _ ->
        let gil = float_of_int (Gilbert.losses rng g ~steps:1000) in
        let ber = float_of_int (Bernoulli.losses rng ~rate:0.1 ~steps:1000) in
        (gil, ber))
  in
  let variance f = Nstats.Descriptive.variance (Array.map f draws) in
  Alcotest.(check bool) "gilbert over-dispersed" true
    (variance fst > 1.3 *. variance snd)

let test_gilbert_zero_and_full () =
  let rng = Rng.create 19 in
  let z = Gilbert.make ~loss_rate:0. () in
  Alcotest.(check int) "no losses at rate 0" 0 (Gilbert.losses rng z ~steps:1000);
  Alcotest.(check (list (pair int int))) "no intervals" []
    (Gilbert.bad_intervals rng z ~steps:100)

(* --- Bernoulli -------------------------------------------------------------- *)

let test_bernoulli_mean () =
  let rng = Rng.create 23 in
  let xs =
    Array.init 3000 (fun _ ->
        float_of_int (Bernoulli.losses rng ~rate:0.05 ~steps:1000))
  in
  close ~tol:1.5 "mean" 50. (Nstats.Descriptive.mean xs)

let test_bernoulli_intervals_match_rate () =
  let rng = Rng.create 29 in
  let xs =
    Array.init 2000 (fun _ ->
        let ivs = Bernoulli.bad_intervals rng ~rate:0.05 ~steps:1000 in
        float_of_int (List.fold_left (fun a (x, y) -> a + y - x) 0 ivs))
  in
  close ~tol:1.5 "interval mass matches rate" 50. (Nstats.Descriptive.mean xs);
  (* Bernoulli interval counts must match binomial variance (independence) *)
  close ~tol:8. "binomial variance" (1000. *. 0.05 *. 0.95)
    (Nstats.Descriptive.variance xs)

let test_bernoulli_edges () =
  let rng = Rng.create 31 in
  Alcotest.(check int) "rate 0" 0 (Bernoulli.losses rng ~rate:0. ~steps:100);
  Alcotest.(check int) "rate 1" 100 (Bernoulli.losses rng ~rate:1. ~steps:100);
  Alcotest.(check (list (pair int int))) "rate 1 single interval" [ (0, 100) ]
    (Bernoulli.bad_intervals rng ~rate:1. ~steps:100)

(* --- Properties ---------------------------------------------------------------- *)

let prop_gilbert_intervals_disjoint =
  QCheck.Test.make ~count:200 ~name:"gilbert intervals disjoint and bounded"
    QCheck.(pair (float_range 0.001 0.9) (int_range 1 500))
    (fun (rate, steps) ->
      let rng = Rng.create (steps * 31) in
      let g = Gilbert.make ~loss_rate:rate () in
      let ivs = Gilbert.bad_intervals rng g ~steps in
      let rec ok prev = function
        | [] -> true
        | (a, b) :: rest -> a >= prev && b > a && b <= steps && ok b rest
      in
      ok 0 ivs)

let prop_bernoulli_counts_in_range =
  QCheck.Test.make ~count:200 ~name:"bernoulli losses within [0, steps]"
    QCheck.(pair (float_range 0. 1.) (int_range 0 300))
    (fun (rate, steps) ->
      let rng = Rng.create (steps + 1) in
      let l = Bernoulli.losses rng ~rate ~steps in
      l >= 0 && l <= steps)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_gilbert_intervals_disjoint; prop_bernoulli_counts_in_range ]

let () =
  Alcotest.run "lossmodel"
    [
      ( "loss_model",
        [
          Alcotest.test_case "llrd1 ranges" `Quick test_llrd1_ranges;
          Alcotest.test_case "llrd2 ranges" `Quick test_llrd2_ranges;
          Alcotest.test_case "threshold" `Quick test_threshold_classification;
          Alcotest.test_case "custom validation" `Quick test_custom_validation;
        ] );
      ( "gilbert",
        [
          Alcotest.test_case "stationary" `Quick test_gilbert_stationary;
          Alcotest.test_case "defaults" `Quick test_gilbert_defaults;
          Alcotest.test_case "clamped" `Quick test_gilbert_clamped;
          Alcotest.test_case "invalid" `Quick test_gilbert_invalid;
          Alcotest.test_case "interval validity" `Quick test_gilbert_intervals_valid;
          Alcotest.test_case "loss count mean" `Slow test_gilbert_loss_count_mean;
          Alcotest.test_case "burstiness" `Slow test_gilbert_burstiness;
          Alcotest.test_case "zero and full" `Quick test_gilbert_zero_and_full;
        ] );
      ( "bernoulli",
        [
          Alcotest.test_case "mean" `Slow test_bernoulli_mean;
          Alcotest.test_case "intervals match rate" `Slow
            test_bernoulli_intervals_match_rate;
          Alcotest.test_case "edges" `Quick test_bernoulli_edges;
        ] );
      ("properties", properties);
    ]
