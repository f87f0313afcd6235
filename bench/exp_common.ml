(* Shared machinery for the experiment harness: one-trial runners,
   multi-run averaging, and paper-style table printing. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator
module Metrics = Core.Metrics

type trial = {
  r : Sparse.t;
  routing : Topology.Routing.reduced;
  testbed : Topology.Testbed.t;
  y_learn : Matrix.t;
  target : Snapshot.t;
  result : Core.Lia.result;
}

(* Run one full campaign + inference on a testbed. *)
let run_trial ?(dynamics = Simulator.Static) ?(config_of = fun c -> c) ~seed ~m
    testbed =
  let rng = Rng.create seed in
  let routing = Topology.Testbed.routing testbed in
  let r = routing.Topology.Routing.matrix in
  let config = config_of (Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated) in
  let run = Simulator.run ~dynamics rng config r ~count:(m + 1) in
  let y_learn, target = Simulator.split_learning run ~learning:m in
  let result = Core.Lia.infer ~r ~y_learn ~y_now:target.Snapshot.y () in
  { r; routing; testbed; y_learn; target; result }

(* DR/FPR against the drawn congestion statuses (the paper's ground
   truth). A link whose status is good but whose bursty realization
   genuinely dropped more than [threshold] of the probes is not counted as
   a false positive: the inference correctly reported what the link did
   during the snapshot. *)
let location_of_trial ?(threshold = 0.002) t =
  let inferred = Core.Lia.congested t.result ~threshold in
  let honest =
    Array.mapi
      (fun k f ->
        f
        && ((not t.target.Snapshot.congested.(k))
           && t.target.Snapshot.realized.(k) > threshold))
      inferred
  in
  let inferred = Array.mapi (fun k f -> f && not honest.(k)) inferred in
  Metrics.location ~actual:t.target.Snapshot.congested ~inferred

(* Congested-to-kept-columns ratio of Figure 7. *)
let congested_vs_kept t =
  let ncong =
    Array.fold_left (fun a c -> if c then a + 1 else a) 0 t.target.Snapshot.congested
  in
  (ncong, Array.length t.result.Core.Lia.kept)

let absolute_errors t =
  Metrics.absolute_errors ~actual:t.target.Snapshot.realized
    ~inferred:t.result.Core.Lia.loss_rates

let error_factors t =
  Metrics.error_factors ~actual:t.target.Snapshot.realized
    ~inferred:t.result.Core.Lia.loss_rates

(* Error samples restricted to the actually-congested links — the links
   whose loss rates LIA determines (Table 2 / Figure 6 convention: on the
   others the inferred rate is the 0 approximation by construction). *)
let congested_subset t errs =
  let out = ref [] in
  Array.iteri
    (fun k c -> if c then out := errs.(k) :: !out)
    t.target.Snapshot.congested;
  !out

let congested_absolute_errors t = congested_subset t (absolute_errors t)

let congested_error_factors t = congested_subset t (error_factors t)

let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Fixed per-experiment seed streams so every experiment is reproducible
   independently of the others. *)
let seeds ~base n = Array.init n (fun k -> base + (k * 7919))

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subheader title = Printf.printf "\n-- %s --\n" title

let note fmt = Printf.printf ("   " ^^ fmt ^^ "\n")

let row fmt = Printf.printf (fmt ^^ "\n")

let pct x = 100. *. x
