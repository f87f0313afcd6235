type location = { dr : float; fpr : float }

let location ~actual ~inferred =
  let n = Array.length actual in
  if Array.length inferred <> n then invalid_arg "Metrics.location: length mismatch";
  let detected = ref 0 and failures = ref 0 in
  let false_pos = ref 0 and flagged = ref 0 in
  for k = 0 to n - 1 do
    if actual.(k) then begin
      incr failures;
      if inferred.(k) then incr detected
    end;
    if inferred.(k) then begin
      incr flagged;
      if not actual.(k) then incr false_pos
    end
  done;
  let dr =
    if !failures = 0 then 1. else float_of_int !detected /. float_of_int !failures
  in
  let fpr =
    if !flagged = 0 then 0. else float_of_int !false_pos /. float_of_int !flagged
  in
  { dr; fpr }

(* the floor δ of Bu et al.'s error factor f_δ *)
let delta = 1e-3

let error_factor q q_star =
  let qd = Float.max delta q and qsd = Float.max delta q_star in
  Float.max (qd /. qsd) (qsd /. qd)

let error_factors ~actual ~inferred =
  if Array.length actual <> Array.length inferred then
    invalid_arg "Metrics.error_factors: length mismatch";
  Array.map2 error_factor actual inferred

let absolute_errors ~actual ~inferred =
  if Array.length actual <> Array.length inferred then
    invalid_arg "Metrics.absolute_errors: length mismatch";
  Array.map2 (fun q qs -> Float.abs (q -. qs)) actual inferred

type spread = { max : float; median : float; min : float }

let spread xs =
  { max = Nstats.Descriptive.maximum xs;
    median = Nstats.Descriptive.median xs;
    min = Nstats.Descriptive.minimum xs }

let pp_location ppf { dr; fpr } =
  Format.fprintf ppf "DR=%.2f%% FPR=%.2f%%" (100. *. dr) (100. *. fpr)

let pp_spread ppf { max; median; min } =
  Format.fprintf ppf "max=%.4g median=%.4g min=%.4g" max median min
