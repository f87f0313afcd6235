module Rng = Nstats.Rng

type t = {
  name : string;
  good_lo : float;
  good_hi : float;
  congested_lo : float;
  congested_hi : float;
  threshold : float;
}

let custom ~name ~good:(good_lo, good_hi) ~congested:(congested_lo, congested_hi)
    ~threshold =
  let in_unit x = x >= 0. && x <= 1. in
  if
    not
      (in_unit good_lo && in_unit good_hi && in_unit congested_lo
     && in_unit congested_hi && in_unit threshold)
  then invalid_arg "Loss_model.custom: rates must lie in [0,1]";
  if good_lo > good_hi || congested_lo > congested_hi then
    invalid_arg "Loss_model.custom: inverted range";
  { name; good_lo; good_hi; congested_lo; congested_hi; threshold }

let llrd1 =
  custom ~name:"LLRD1" ~good:(0., 0.002) ~congested:(0.05, 0.2) ~threshold:0.002

let llrd2 =
  custom ~name:"LLRD2" ~good:(0., 0.002) ~congested:(0.002, 1.) ~threshold:0.002

let llrd1_calibrated =
  custom ~name:"LLRD1-calibrated" ~good:(0., 0.0005) ~congested:(0.05, 0.2)
    ~threshold:0.002

let internet =
  custom ~name:"internet" ~good:(0., 0.0005) ~congested:(0.01, 0.3)
    ~threshold:0.002

let builtins =
  [
    ("llrd1", llrd1);
    ("llrd1-calibrated", llrd1_calibrated);
    ("llrd2", llrd2);
    ("internet", internet);
  ]

let draw_good rng m =
  if m.good_lo = m.good_hi then m.good_lo else Rng.uniform rng m.good_lo m.good_hi

let draw_congested rng m =
  if m.congested_lo = m.congested_hi then m.congested_lo
  else Rng.uniform rng m.congested_lo m.congested_hi

let is_congested m rate = rate > m.threshold
