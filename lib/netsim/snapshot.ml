module Rng = Nstats.Rng
module Sparse = Linalg.Sparse
module Loss_model = Lossmodel.Loss_model
module Gilbert = Lossmodel.Gilbert
module Bernoulli = Lossmodel.Bernoulli

type process = Gilbert of float | Bernoulli

type fidelity = Packet_level | Packet_per_path | Flow_level

type config = {
  model : Loss_model.t;
  process : process;
  fidelity : fidelity;
  congestion_prob : float;
  probes : int;
}

let default_config model =
  { model; process = Gilbert 0.35; fidelity = Packet_level;
    congestion_prob = 0.1; probes = 1000 }

type t = {
  loss_rates : float array;
  realized : float array;
  congested : bool array;
  received : int array;
  y : float array;
}

let validate config =
  if config.probes <= 0 then invalid_arg "Snapshot: probes <= 0";
  if not (0. <= config.congestion_prob && config.congestion_prob <= 1.) then
    invalid_arg "Snapshot: congestion_prob out of [0,1]"

let link_bad_intervals rng config rate =
  match config.process with
  | Gilbert stay_bad ->
      let chain = Gilbert.make ~stay_bad ~loss_rate:rate () in
      Gilbert.bad_intervals rng chain ~steps:config.probes
  | Bernoulli -> Bernoulli.bad_intervals rng ~rate ~steps:config.probes

let draw_statuses rng config ~links =
  validate config;
  Array.init links (fun _ -> Rng.bool rng config.congestion_prob)

let generate rng config ~congested r =
  validate config;
  let nc = Sparse.cols r and np = Sparse.rows r in
  if Array.length congested <> nc then
    invalid_arg "Snapshot.generate: status vector length mismatch";
  let congested = Array.copy congested in
  let loss_rates =
    Array.map
      (fun c ->
        if c then Loss_model.draw_congested rng config.model
        else Loss_model.draw_good rng config.model)
      congested
  in
  let s = config.probes in
  let sf = float_of_int s in
  (* For the shared fidelity, draw each link's dropping periods once; every
     path crossing the link sees the same periods. *)
  let shared_intervals =
    match config.fidelity with
    | Packet_level ->
        Array.map
          (fun rate ->
            if rate = 0. then [] else link_bad_intervals rng config rate)
          loss_rates
    | Packet_per_path | Flow_level -> [||]
  in
  let received =
    Array.init np (fun i ->
        let links = Sparse.row r i in
        match config.fidelity with
        | Flow_level ->
            let trans =
              Array.fold_left (fun acc j -> acc *. (1. -. loss_rates.(j))) 1. links
            in
            Rng.binomial rng s trans
        | Packet_level ->
            let bad =
              Array.to_list links |> List.map (fun j -> shared_intervals.(j))
            in
            Intervals.complement_length ~steps:s bad
        | Packet_per_path ->
            (* a fresh copy of each link's process for this path *)
            let bad =
              Array.to_list links
              |> List.filter_map (fun j ->
                     if loss_rates.(j) = 0. then None
                     else Some (link_bad_intervals rng config loss_rates.(j)))
            in
            Intervals.complement_length ~steps:s bad)
  in
  let y =
    Array.map
      (fun rx ->
        let rx = if rx = 0 then 0.5 else float_of_int rx in
        log (rx /. sf))
      received
  in
  let realized =
    match config.fidelity with
    | Packet_level ->
        Array.map
          (fun iv -> float_of_int (Intervals.complement_length ~steps:s [ iv ]))
          shared_intervals
        |> Array.map (fun survived -> 1. -. (survived /. sf))
    | Packet_per_path | Flow_level -> Array.copy loss_rates
  in
  { loss_rates; realized; congested; received; y }
