(* The ledger's workloads and the inputs each one generates from its seed.

   Every workload runs LIA on a PlanetLab-like overlay with the paper's
   default campaign (LLRD1-calibrated, Gilbert 0.35, S = 1000, p = 0.1,
   static congestion) and m = 50 learning snapshots. A run splits its
   inputs over several campaigns, each learning on m snapshots and
   diagnosing the ones after them.

   The network is part of the workload, not of the seed: the overlay,
   the set of links that congest in each campaign (exactly p of them)
   and, for serving, the learning snapshots of the deployment come from
   per-workload constants; the seed draws the loss processes and probe
   measurements of every snapshot a timed op receives, and the injected
   faults ([reference] below fixes these too, for the inputs allocation
   and accuracy are measured on). Phase 2's cost follows the rank of R*,
   which follows the congested set, and LIA's detection rate depends
   strongly on it: where congested links' columns are linearly
   dependent, rank reduction stops early and drops congested links (on
   the 46-host overlay a quarter of random draws lose 10-60% of them).
   Were these drawn from the seed, timings and accuracy would swing with
   the draw rather than with the code.

   The windows of one campaign share all but one of their learning
   snapshots, so they cost the same to diagnose. On the dense path the
   rank, and with it the cost, moves with each campaign's measurement
   noise: on [diagnose-992] about one campaign in twenty keeps twice the
   usual columns and takes 2-3x as long, so there each input is a
   campaign of its own. [diagnose-240] and the degraded workload spread
   their inputs over 20 and 12 campaigns: with 10 and 8, the seeds
   whose campaigns drew costly ranks read up to 15% slower in every set
   of runs, and the quartile spread of the median over ten seeds was
   8-15%, against 3-6% with more campaigns. On [diagnose-2070-cgls]
   twelve campaigns allocated within 7% of each other, and one campaign
   of five windows saves simulating four more.

   A run times every input at least once, so a pass over the timed
   inputs is sized to fit in a ten-second run with the host at twice its
   quietest op time, except on [diagnose-2070-cgls], where five 2-second
   ops make one pass. *)

module Matrix = Linalg.Matrix
module Snapshot = Netsim.Snapshot

type mode =
  | Diagnose  (** learn on the previous m snapshots, diagnose the next *)
  | Serve  (** one plan built at set-up, then one snapshot per op *)

(* A set of inputs: [campaigns] independent campaigns, each diagnosing
   [windows] consecutive targets (for serving, one campaign whose
   [windows] snapshots are served). *)
type shape = { campaigns : int; windows : int }

type t = {
  name : string;
  why : string;
  hosts : int;
  mode : mode;
  cgls : bool;  (** [--solver cgls]; the default dense path otherwise *)
  degraded : bool;
      (** faults injected into every input, telemetry sinks on *)
  timed : shape;  (** drawn from the seed; the timed loop cycles over them *)
  fixed : shape;
      (** the reference inputs ([reference]), on which allocation and
          accuracy are measured *)
}

let learning = 50
let threshold = 0.002

let all =
  [
    {
      name = "diagnose-240";
      why =
        "16 hosts, 240 paths, dense solver: small rung where fixed per-call \
         costs (parse, report) show; a change aimed at large sizes must not \
         move it";
      hosts = 16;
      mode = Diagnose;
      cgls = false;
      degraded = false;
      timed = { campaigns = 20; windows = 5 };
      fixed = { campaigns = 5; windows = 4 };
    };
    {
      name = "diagnose-992";
      why =
        "32 hosts, 992 paths, dense solver: largest rung on the default \
         path, where Plan.make (dense R*, rank reduction, QR) does most of \
         the allocation";
      hosts = 32;
      mode = Diagnose;
      cgls = false;
      degraded = false;
      timed = { campaigns = 6; windows = 1 };
      fixed = { campaigns = 2; windows = 1 };
    };
    {
      name = "diagnose-2070-cgls";
      why =
        "46 hosts, 2070 paths, --solver cgls: the scale rung, where the \
         matrix-free Phase-1 sweep over 2.1 M pair rows is most of each op";
      hosts = 46;
      mode = Diagnose;
      cgls = true;
      degraded = false;
      timed = { campaigns = 1; windows = 5 };
      fixed = { campaigns = 1; windows = 1 };
    };
    {
      name = "serve-992";
      why =
        "32 hosts: one plan learnt at set-up serves 200 distinct snapshots \
         in turn, so snapshot parsing and Plan.solve do the per-op work";
      hosts = 32;
      mode = Serve;
      cgls = false;
      degraded = false;
      timed = { campaigns = 1; windows = 200 };
      fixed = { campaigns = 1; windows = 20 };
    };
    {
      name = "degraded-552-observed";
      why =
        "24 hosts, 552 paths, cgls on faulted inputs with metrics, recorder \
         and convergence sinks on: quarantine, the masked Phase 1 and obs do \
         real work";
      hosts = 24;
      mode = Diagnose;
      cgls = true;
      degraded = true;
      timed = { campaigns = 12; windows = 2 };
      fixed = { campaigns = 4; windows = 2 };
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* distinct timed inputs *)
let distinct w = w.timed.campaigns * w.timed.windows

(* The smoke variant: the same pipeline on a 6-8 host overlay with three
   inputs in each set, small enough for every [dune runtest]. *)
let smoke w =
  let three = { campaigns = 1; windows = 3 } in
  { w with hosts = 6 + (w.hosts mod 3); timed = three; fixed = three }

(* Fault specs of op [k] in the degraded workload (README's degraded
   walkthrough, plus host churn): one for the learning rows, one for the
   target row. *)
let learn_faults ~seed k =
  Printf.sprintf "seed=%d,drop=0.1,miss=0.05,oor=0.02,dup=0.1,churn=4@0.5"
    (seed + k)

let target_faults ~seed k = Printf.sprintf "seed=%d,miss=0.03" (seed + k)

let parse_faults spec =
  match Netsim.Faults.parse spec with
  | Ok t -> t
  | Error msg -> failwith (Printf.sprintf "fault spec %S: %s" spec msg)

(* What the benchmark keeps of the simulated target snapshot of one
   input: the scoring ground truth. *)
type truth = { congested : bool array; realized : float array }

type inputs = {
  testbed : string;  (** [Topology.Serial.to_string] document *)
  campaigns : Matrix.t array;
      (** each [learning + windows] snapshots; input [k] is window
          [k mod windows] of campaign [k / windows] *)
  windows : int;
  truth : truth array;  (** per input *)
  seed : int;
}

(* What belongs to the workload rather than the seed: the overlay, the
   set of links that congest in each campaign, and for serving the
   snapshots the plan learns from (the deployment is set up once; the
   seed draws the snapshots it serves). *)
let topology_seed w = 1000 + w.hosts
let congestion_seed w = 2000 + w.hosts
let deployment_seed w = 3000 + w.hosts
let reference_seed w = 4000 + w.hosts

(* One static campaign of [learning + windows] snapshots, as
   [Simulator.run ~dynamics:Static] makes it, except that the congested
   links are exactly [round (p * links)] links drawn from [sets], the
   learning snapshots are drawn from [learn] and the rest from [rng]. *)
let campaign ~windows ~sets ~learn rng config r =
  let links = Linalg.Sparse.cols r in
  let congested = Array.make links false in
  Array.iter
    (fun j -> congested.(j) <- true)
    (Nstats.Rng.sample_without_replacement sets
       (Float.to_int (Float.round (config.Snapshot.congestion_prob *. float_of_int links)))
       links);
  let count = learning + windows in
  let y = Matrix.zeros count (Linalg.Sparse.rows r) in
  let truth = ref [] in
  for l = 0 to count - 1 do
    let s = Snapshot.generate (if l < learning then learn else rng) config ~congested r in
    Matrix.set_row y l s.Snapshot.y;
    if l >= learning then
      truth := { congested = s.Snapshot.congested; realized = s.Snapshot.realized } :: !truth
  done;
  (y, List.rev !truth)

(* Inputs of [shape] drawn from [seed] *)
let generate w (shape : shape) ~seed =
  let tb =
    Topology.Overlay.planetlab_like
      (Nstats.Rng.create (topology_seed w))
      ~hosts:w.hosts ()
  in
  let r = (Topology.Testbed.routing tb).Topology.Routing.matrix in
  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let sets = Nstats.Rng.create (congestion_seed w) and rng = Nstats.Rng.create seed in
  let learn =
    match w.mode with Serve -> Nstats.Rng.create (deployment_seed w) | Diagnose -> rng
  in
  let campaigns =
    Array.init shape.campaigns (fun _ ->
        campaign ~windows:shape.windows ~sets ~learn rng config r)
  in
  {
    testbed = Topology.Serial.to_string tb;
    campaigns = Array.map fst campaigns;
    windows = shape.windows;
    truth = Array.of_list (List.concat_map snd (Array.to_list campaigns));
    seed;
  }

(* The reference inputs, on which allocation and accuracy are measured:
   the same network and congested sets, with loss processes, probes and
   faults drawn from a per-workload constant instead of the run's seed.
   A change to the code then moves these counts by exactly what it
   changes. Drawn from the seed, detection rate moved 0.3-13% and
   allocation 1-3% from seed to seed (the plan's rank, and where rank
   reduction stops in a campaign, depend on the measurement noise),
   which would hide a loss of accuracy or a gain in allocation ten times
   smaller. *)
let reference w = generate w w.fixed ~seed:(reference_seed w)

(* [count] snapshots of input [k]'s campaign, from [first] snapshots
   after the input's window starts *)
let rows inp k ~first ~count =
  let y = inp.campaigns.(k / inp.windows) and start = (k mod inp.windows) + first in
  Matrix.init count (Matrix.cols y) (fun l i -> Matrix.get y (start + l) i)

(* The measurement document of diagnose input [k]: its window's m
   learning snapshots and the target after them. The degraded workload
   injects its faults here, before the document exists, as a faulty
   collector would. *)
let diagnose_doc w inp k =
  let doc =
    if not w.degraded then rows inp k ~first:0 ~count:(learning + 1)
    else
      let seed = inp.seed in
      let learn, _ =
        Netsim.Faults.apply
          (parse_faults (learn_faults ~seed k))
          (rows inp k ~first:0 ~count:learning)
      in
      let target, _ =
        Netsim.Faults.apply
          (parse_faults (target_faults ~seed k))
          (rows inp k ~first:learning ~count:1)
      in
      Matrix.vstack learn target
  in
  Netsim.Trace_io.to_string doc

(* Serving: the learning document (the first m snapshots), one
   document per served snapshot, and all served snapshots in one file as
   the CLI's [--snapshots] input. *)
let learn_doc inp = Netsim.Trace_io.to_string (rows inp 0 ~first:0 ~count:learning)

let snapshots_doc inp =
  Netsim.Trace_io.to_string (rows inp 0 ~first:learning ~count:(Array.length inp.truth))

let doc w inp k =
  match w.mode with
  | Diagnose -> diagnose_doc w inp k
  | Serve -> Netsim.Trace_io.to_string (rows inp 0 ~first:(learning + k) ~count:1)
