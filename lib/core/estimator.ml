module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix

type capabilities = {
  tree_only : bool;
  needs_snapshots : bool;
  needs_variances : bool;
  boolean_verdicts : bool;
}

type golden_bound =
  | Abs_err of float
  | Detection of { min_dr : float; max_fpr : float }

type output = {
  loss_rates : float array option;
  verdicts : bool array option;
  health : string;
  note : string;
}

type t = {
  name : string;
  descr : string;
  caps : capabilities;
  golden : golden_bound;
  estimate : threshold:float -> Measurement.t -> (output, string) result;
}

let no_caps =
  {
    tree_only = false;
    needs_snapshots = false;
    needs_variances = false;
    boolean_verdicts = false;
  }

(* ---- shared plumbing ------------------------------------------------- *)

let tree_of (input : Measurement.t) =
  match input.Measurement.routing with
  | None -> Error "skipped(no routing topology attached)"
  | Some routing -> (
      try Ok (routing, Netsim.Multicast.tree_of_routing routing)
      with Invalid_argument _ -> Error "skipped(not a single-beacon tree)")

let check e (input : Measurement.t) =
  let tree =
    if not e.caps.tree_only then Ok ()
    else match tree_of input with Error r -> Error r | Ok _ -> Ok ()
  in
  match tree with
  | Error _ as err -> err
  | Ok () ->
      if e.caps.needs_snapshots && Matrix.rows input.Measurement.y_learn < 2
      then Error "skipped(needs a learning window of >= 2 snapshots)"
      else if e.caps.needs_variances && input.Measurement.variances = None then
        Error "skipped(needs caller-supplied link variances)"
      else Ok ()

let verdicts_of_rates ~threshold rates = Array.map (fun l -> l > threshold) rates

(* data faults become a typed refusal, never an exception escape *)
let guard f =
  try f () with
  | Invalid_argument msg | Failure msg ->
      Ok { loss_rates = None; verdicts = None; health = "refused"; note = msg }

let rate_output ?(health = "clean") ?(note = "") ~threshold rates =
  let rates = Array.map (fun l -> if Float.is_finite l then l else 0.) rates in
  Ok
    {
      loss_rates = Some rates;
      verdicts = Some (verdicts_of_rates ~threshold rates);
      health;
      note;
    }

(* excluded-target accounting shared by the adapters that restrict to the
   finitely measured paths *)
let target_health (input : Measurement.t) valid =
  let missing = Array.length input.Measurement.y_now - Array.length valid in
  if missing = 0 then ("clean", "")
  else ("degraded", Printf.sprintf "target: %d invalid paths excluded" missing)

(* ---- MINC (multicast gold standard, unicast-approximated gammas) ----- *)

(* Subtree reception fractions reconstructed from unicast snapshots under
   cross-path independence: gamma_v = 1 - prod_{p in subtree(v)} (1 - phi_p)
   with phi_p = exp y. Exact gammas need joint multicast receptions, which
   unicast measurements cannot carry; the approximation keeps MINC on the
   identical faulted data path as every other backend. A non-finite
   measurement is an absent receiver, not a total loss: each node's gamma
   averages only over the snapshots in which its subtree was observed at
   all (nodes never observed keep gamma 0 and degrade to transmission 0,
   MINC's own degenerate-node convention). *)
let unicast_gammas tree y =
  let sub = Fourier.subtree_paths tree in
  let m = Matrix.rows y in
  Array.map
    (fun paths ->
      let sum = ref 0. and seen = ref 0 in
      for l = 0 to m - 1 do
        let miss = ref 1. and observed = ref false in
        Array.iter
          (fun p ->
            let v = Matrix.get y l p in
            if Float.is_finite v then begin
              observed := true;
              let phi = Float.max 0. (Float.min 1. (exp v)) in
              miss := !miss *. (1. -. phi)
            end)
          paths;
        if !observed then begin
          incr seen;
          sum := !sum +. (1. -. !miss)
        end
      done;
      if !seen = 0 then 0. else !sum /. float_of_int !seen)
    sub

let minc =
  let caps = { no_caps with tree_only = true; needs_snapshots = true } in
  let estimate ~threshold (input : Measurement.t) =
    match tree_of input with
    | Error r -> Error r
    | Ok (_, tree) ->
        if Matrix.rows input.Measurement.y_learn < 2 then
          Error "skipped(needs a learning window of >= 2 snapshots)"
        else
          guard (fun () ->
              let gamma = unicast_gammas tree input.Measurement.y_learn in
              let r = Minc.infer tree ~gamma in
              let rates = Array.map (fun t -> 1. -. t) r.Minc.transmission in
              rate_output ~threshold
                ~note:"gammas approximated from unicast snapshots" rates)
  in
  {
    name = "minc";
    descr = "MINC multicast tree estimator (Caceres et al. 1999)";
    caps;
    golden = Abs_err 0.05;
    estimate;
  }

(* ---- unicast maximum likelihood (coordinate ascent) ------------------ *)

let em =
  let estimate ~threshold (input : Measurement.t) =
    guard (fun () ->
        let valid = Measurement.valid_target input in
        if Array.length valid = 0 then
          Ok
            {
              loss_rates = None;
              verdicts = None;
              health = "refused";
              note = "no finite target measurements";
            }
        else
          let res =
            if Array.length valid = Array.length input.Measurement.y_now then
              Em_tomography.estimate_input input
            else
              let r_sub = Sparse.select_rows input.Measurement.r valid in
              let all = Measurement.delivered input in
              let delivered = Array.map (fun i -> all.(i)) valid in
              Em_tomography.estimate r_sub ~delivered
                ~probes:input.Measurement.probes
          in
          let health, note = target_health input valid in
          let note =
            let sweeps = Printf.sprintf "%d sweeps" res.Em_tomography.sweeps in
            if note = "" then sweeps else note ^ "; " ^ sweeps
          in
          let rates =
            Array.map (fun t -> 1. -. t) res.Em_tomography.transmission
          in
          rate_output ~health ~note ~threshold rates)
  in
  {
    name = "em";
    descr = "unicast max-likelihood coordinate ascent (refs [12, 29])";
    caps = no_caps;
    golden = Abs_err 0.1;
    estimate;
  }

(* ---- MILS ------------------------------------------------------------ *)

let mils =
  let estimate ~threshold (input : Measurement.t) =
    guard (fun () ->
        let est = Mils.estimate input in
        let valid = Measurement.valid_target input in
        let health, note = target_health input valid in
        let note =
          let g =
            Printf.sprintf "granularity %.2f" est.Mils.mean_segment_length
          in
          if note = "" then g else note ^ "; " ^ g
        in
        rate_output ~health ~note ~threshold est.Mils.loss_rates)
  in
  {
    name = "mils";
    descr = "minimal identifiable link sequences (Zhao et al. 2006, [36])";
    caps = no_caps;
    golden = Abs_err 0.1;
    estimate;
  }

(* ---- SCFS / CLINK (boolean diagnosis) -------------------------------- *)

let restrict_target (input : Measurement.t) =
  let valid = Measurement.valid_target input in
  if Array.length valid = 0 then None
  else if Array.length valid = Array.length input.Measurement.y_now then
    Some (input.Measurement.r, input.Measurement.y_now, valid)
  else
    Some
      ( Sparse.select_rows input.Measurement.r valid,
        Array.map (fun i -> input.Measurement.y_now.(i)) valid,
        valid )

let scfs =
  let caps = { no_caps with boolean_verdicts = true } in
  let estimate ~threshold (input : Measurement.t) =
    guard (fun () ->
        match restrict_target input with
        | None ->
            Ok
              {
                loss_rates = None;
                verdicts = None;
                health = "refused";
                note = "no finite target measurements";
              }
        | Some (r, y_now, valid) ->
            let bad = Scfs.classify_paths r ~y_now ~threshold in
            let verdicts = Scfs.infer r ~bad_paths:bad in
            let health, note = target_health input valid in
            Ok { loss_rates = None; verdicts = Some verdicts; health; note })
  in
  {
    name = "scfs";
    descr = "smallest consistent failure set diagnosis (Duffield 2006)";
    caps;
    golden = Detection { min_dr = 0.3; max_fpr = 0.5 };
    estimate;
  }

let clink =
  let caps = { no_caps with needs_snapshots = true; boolean_verdicts = true } in
  let estimate ~threshold (input : Measurement.t) =
    if Matrix.rows input.Measurement.y_learn < 2 then
      Error "skipped(needs a learning window of >= 2 snapshots)"
    else
      guard (fun () ->
          match restrict_target input with
          | None ->
              Ok
                {
                  loss_rates = None;
                  verdicts = None;
                  health = "refused";
                  note = "no finite target measurements";
                }
          | Some (r, y_now, valid) ->
              let gf =
                Clink.good_fractions input.Measurement.y_learn
                  ~r:input.Measurement.r ~threshold
              in
              let model = Clink.learn ~r:input.Measurement.r ~good_fraction:gf in
              let bad = Scfs.classify_paths r ~y_now ~threshold in
              let verdicts = Clink.infer model r ~bad_paths:bad in
              let health, note = target_health input valid in
              Ok { loss_rates = None; verdicts = Some verdicts; health; note })
  in
  {
    name = "clink";
    descr = "prior-weighted failure-set diagnosis (Nguyen & Thiran 2007)";
    caps;
    golden = Detection { min_dr = 0.3; max_fpr = 0.5 };
    estimate;
  }

(* ---- Fourier-domain segment variances (Chen, Cao & Bu) --------------- *)

let fourier =
  let caps = { no_caps with tree_only = true; needs_snapshots = true } in
  let estimate ~threshold (input : Measurement.t) =
    match tree_of input with
    | Error r -> Error r
    | Ok (routing, _) ->
        if Matrix.rows input.Measurement.y_learn < 2 then
          Error "skipped(needs a learning window of >= 2 snapshots)"
        else
          guard (fun () ->
              let res =
                Fourier.infer ~routing ~y_learn:input.Measurement.y_learn
                  ~y_now:input.Measurement.y_now ()
              in
              let health, note =
                if res.Fourier.unresolved = 0 then ("clean", "")
                else
                  ( "degraded",
                    Printf.sprintf "%d unresolved segment variances"
                      res.Fourier.unresolved )
              in
              rate_output ~health ~note ~threshold
                res.Fourier.result.Plan.loss_rates)
  in
  {
    name = "fourier";
    descr = "ECF segment-variance estimation on trees (Chen, Cao & Bu)";
    caps;
    golden = Abs_err 0.08;
    estimate;
  }

(* ---- Phase-2-only serving plan (caller-supplied variances) ----------- *)

let plan =
  let caps = { no_caps with needs_variances = true } in
  let estimate ~threshold (input : Measurement.t) =
    match input.Measurement.variances with
    | None -> Error "skipped(needs caller-supplied link variances)"
    | Some variances ->
        guard (fun () ->
            match restrict_target input with
            | None ->
                Ok
                  {
                    loss_rates = None;
                    verdicts = None;
                    health = "refused";
                    note = "no finite target measurements";
                  }
            | Some (r, y_now, valid) ->
                let res = Lia.infer_with_variances ~r ~variances ~y_now in
                let health, note = target_health input valid in
                rate_output ~health ~note ~threshold res.Lia.loss_rates)
  in
  {
    name = "plan";
    descr = "LIA Phase 2 on caller-supplied variances (factor-once serving)";
    caps;
    golden = Abs_err 0.05;
    estimate;
  }

(* ---- LIA ------------------------------------------------------------- *)

let lia_adapter ~name ~descr ~solver ~golden =
  let caps = { no_caps with needs_snapshots = true } in
  let estimate ~threshold (input : Measurement.t) =
    if Matrix.rows input.Measurement.y_learn < 2 then
      Error "skipped(needs a learning window of >= 2 snapshots)"
    else
      guard (fun () ->
          let checked =
            Lia.infer_checked ~solver ~r:input.Measurement.r
              ~y_learn:input.Measurement.y_learn
              ~y_now:input.Measurement.y_now ()
          in
          let health = Lia.health_label checked.Lia.health in
          let note =
            match checked.Lia.health with
            | Lia.Clean -> ""
            | h -> Lia.health_summary h
          in
          match checked.Lia.result with
          | None -> Ok { loss_rates = None; verdicts = None; health; note }
          | Some res -> rate_output ~health ~note ~threshold res.Lia.loss_rates)
  in
  { name; descr; caps; golden; estimate }

let lia_dense =
  lia_adapter ~name:"lia-dense"
    ~descr:
      "LIA two-phase inference, sparse Cholesky normal-equation solvers \
       (the paper, Sec. 5.3)"
    ~solver:Lia.Dense ~golden:(Abs_err 0.02)

let lia_cgls =
  lia_adapter ~name:"lia-cgls"
    ~descr:"LIA two-phase inference, matrix-free preconditioned CGLS"
    ~solver:Lia.default_cgls ~golden:(Abs_err 0.02)

(* ---- registry -------------------------------------------------------- *)

let all = [ minc; em; mils; scfs; clink; fourier; plan; lia_dense; lia_cgls ]
let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all
