module Matrix = Linalg.Matrix
module Sparse = Linalg.Sparse
module Rng = Nstats.Rng

type status_dynamics =
  | Static
  | Iid
  | Markov of float
  | Hetero of { stay : float; active : float }

type run = { snapshots : Snapshot.t array; y : Matrix.t }

(* Markov step keeping a given stationary probability. *)
let markov_step rng ~stay ~stationary c =
  if not (0. <= stay && stay < 1.) then
    invalid_arg "Simulator: Markov persistence out of [0,1)";
  if c then Rng.bool rng stay
  else begin
    let to_congested =
      if stationary >= 1. then 1.
      else Float.min 1. (stationary *. (1. -. stay) /. (1. -. stationary))
    in
    Rng.bool rng to_congested
  end

let evolve_statuses rng config dynamics statuses =
  match dynamics with
  | Static -> statuses
  | Iid -> Snapshot.draw_statuses rng config ~links:(Array.length statuses)
  | Markov stay ->
      let p = config.Snapshot.congestion_prob in
      Array.map (fun c -> markov_step rng ~stay ~stationary:p c) statuses
  | Hetero _ ->
      invalid_arg "Simulator.evolve_statuses: Hetero needs the prone mask; use run"

let run ?(dynamics = Static) rng config r ~count =
  if count <= 0 then invalid_arg "Simulator.run: count <= 0";
  let links = Sparse.cols r in
  (* For Hetero dynamics the paper's [p] selects the chronically
     trouble-prone links, drawn once; only those ever congest. *)
  let initial, step =
    match dynamics with
    | Hetero { stay; active } ->
        if not (0. < active && active < 1.) then
          invalid_arg "Simulator: Hetero activity out of (0,1)";
        let prone = Snapshot.draw_statuses rng config ~links in
        let initial = Array.map (fun pr -> pr && Rng.bool rng active) prone in
        let step statuses =
          Array.mapi
            (fun k c -> prone.(k) && markov_step rng ~stay ~stationary:active c)
            statuses
        in
        (initial, step)
    | Static | Iid | Markov _ ->
        ( Snapshot.draw_statuses rng config ~links,
          fun statuses -> evolve_statuses rng config dynamics statuses )
  in
  let statuses = ref initial in
  let snapshots =
    Array.init count (fun l ->
        if l > 0 then statuses := step !statuses;
        Snapshot.generate rng config ~congested:!statuses r)
  in
  let np = Sparse.rows r in
  let y = Matrix.init count np (fun l i -> snapshots.(l).Snapshot.y.(i)) in
  { snapshots; y }

let split_learning run ~learning =
  let count = Array.length run.snapshots in
  if learning <= 0 || learning >= count then
    invalid_arg "Simulator.split_learning: need 0 < learning < count";
  let np = Matrix.cols run.y in
  let first = Matrix.init learning np (fun l i -> Matrix.get run.y l i) in
  (first, run.snapshots.(learning))

let mean_variance_per_path run =
  let np = Matrix.cols run.y in
  Array.init np (fun i ->
      let losses =
        Array.map
          (fun (s : Snapshot.t) -> 1. -. (exp s.Snapshot.y.(i)))
          run.snapshots
      in
      (Nstats.Descriptive.mean losses, Nstats.Descriptive.variance losses))
