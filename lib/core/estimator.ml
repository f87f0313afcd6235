module Matrix = Linalg.Matrix

type golden_bound =
  | Abs_err of float
  | Detection of { min_dr : float; max_fpr : float }

type health = Clean | Degraded

type answer = {
  loss_rates : float array option;
  verdicts : bool array;
  health : health;
  note : string;
}

type outcome = Answer of answer | Refused of string | Skipped of string

type t = {
  name : string;
  descr : string;
  golden : golden_bound;
  estimate : threshold:float -> Measurement.t -> outcome;
}

(* ---- shared plumbing ------------------------------------------------- *)

let tree_of (input : Measurement.t) f =
  match input.Measurement.routing with
  | None -> Skipped "skipped(no routing topology attached)"
  | Some routing -> (
      match Netsim.Multicast.tree_of_routing routing with
      | tree -> f tree
      | exception Invalid_argument _ ->
          Skipped "skipped(not a single-beacon tree)")

(* An adapter threads [faults], the notes of what degraded its input so
   far: none is [Clean]. They lead the answer's note, [info] follows. *)
let answer ~faults ~info loss_rates verdicts =
  Answer
    {
      loss_rates;
      verdicts;
      health = (if faults = [] then Clean else Degraded);
      note = String.concat "; " (faults @ info);
    }

let rate_answer ~threshold ~faults ~info rates =
  let rates = Array.map (fun l -> if Float.is_finite l then l else 0.) rates in
  answer ~faults ~info (Some rates) (Array.map (fun l -> l > threshold) rates)

let short_window = Skipped "skipped(needs a learning window of >= 2 snapshots)"

(* Every adapter that learns from the window reads [Quarantine.scrub]'s
   rows, as [Lia.infer_checked] does: fewer than 2 kept rows is a
   refusal, and a report that is not clean degrades the answer. Corrupt
   cells were neutralized to missing, so the note counts a kept row's
   unusable cells as one number. [f] gets the scrubbed window. *)
let on_window (input : Measurement.t) faults f =
  if Matrix.rows input.Measurement.y_learn < 2 then short_window
  else
    let y, q = Quarantine.scrub input.Measurement.y_learn in
    if Matrix.rows y < 2 then
      Refused
        (Printf.sprintf
           "%d usable learning snapshots after quarantine (need at least 2)"
           (Matrix.rows y))
    else
      let note =
        Printf.sprintf "window: %s; %d invalid cells" (Quarantine.summary q)
          q.Quarantine.missing_cells
      in
      f (if Quarantine.clean q then faults else faults @ [ note ]) y

(* Every adapter that reads the target solves over its usable paths only
   ([Quarantine.restrict_target]): a target with none is refused, and the
   excluded paths degrade the answer and are counted in its note. [f]
   gets the restricted system. *)
let on_target (input : Measurement.t) faults f =
  let np = Array.length input.Measurement.y_now in
  let r, y_now, q =
    Quarantine.restrict_target input.Measurement.r input.Measurement.y_now
  in
  let excluded = np - Array.length q.Quarantine.valid in
  if excluded = np then Refused "no usable target measurements"
  else
    let note = Printf.sprintf "target: %d invalid paths excluded" excluded in
    f (if excluded = 0 then faults else faults @ [ note ]) r y_now

(* ---- MINC (multicast gold standard, unicast-approximated gammas) ----- *)

(* Subtree reception fractions reconstructed from unicast snapshots under
   cross-path independence: gamma_v = 1 - prod_{p in subtree(v)} (1 - phi_p)
   with phi_p = exp y. Exact gammas need joint multicast receptions, which
   unicast measurements cannot carry; the approximation keeps MINC on the
   identical faulted data path as every other backend. A cell that
   [Quarantine.cell_valid] rejects is an absent receiver, not a total
   loss (nor, when positive, a full delivery): each node's gamma
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
            if Quarantine.cell_valid v then begin
              observed := true;
              miss := !miss *. (1. -. exp v)
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
  let estimate ~threshold input =
    tree_of input @@ fun tree ->
    on_window input [] @@ fun faults y ->
    let r = Minc.infer tree ~gamma:(unicast_gammas tree y) in
    rate_answer ~threshold ~faults
      ~info:[ "gammas approximated from unicast snapshots" ]
      (Array.map (fun t -> 1. -. t) r.Minc.transmission)
  in
  {
    name = "minc";
    descr = "MINC multicast tree estimator (Caceres et al. 1999)";
    golden = Abs_err 0.05;
    estimate;
  }

(* ---- unicast maximum likelihood (coordinate ascent) ------------------ *)

let em =
  let estimate ~threshold (input : Measurement.t) =
    on_target input [] @@ fun faults r y_now ->
    let probes = input.Measurement.probes in
    let res =
      Em_tomography.estimate r
        ~delivered:(Measurement.delivered ~probes y_now)
        ~probes
    in
    rate_answer ~threshold ~faults
      ~info:[ Printf.sprintf "%d sweeps" res.Em_tomography.sweeps ]
      (Array.map (fun t -> 1. -. t) res.Em_tomography.transmission)
  in
  {
    name = "em";
    descr = "unicast max-likelihood coordinate ascent (refs [12, 29])";
    golden = Abs_err 0.1;
    estimate;
  }

(* ---- MILS ------------------------------------------------------------ *)

let mils =
  let estimate ~threshold input =
    on_target input [] @@ fun faults r y_now ->
    let est = Mils.estimate r ~y_now in
    rate_answer ~threshold ~faults
      ~info:
        [ Printf.sprintf "granularity %.2f" est.Mils.mean_segment_length ]
      est.Mils.loss_rates
  in
  {
    name = "mils";
    descr = "minimal identifiable link sequences (Zhao et al. 2006, [36])";
    golden = Abs_err 0.1;
    estimate;
  }

(* ---- SCFS / CLINK (boolean diagnosis) -------------------------------- *)

let scfs =
  let estimate ~threshold input =
    on_target input [] @@ fun faults r y_now ->
    let bad = Scfs.classify_paths r ~y_now ~threshold in
    answer ~faults ~info:[] None (Scfs.infer r ~bad_paths:bad)
  in
  {
    name = "scfs";
    descr = "smallest consistent failure set diagnosis (Duffield 2006)";
    golden = Detection { min_dr = 0.3; max_fpr = 0.5 };
    estimate;
  }

let clink =
  let estimate ~threshold (input : Measurement.t) =
    on_window input [] @@ fun faults y ->
    on_target input faults @@ fun faults r y_now ->
    let full = input.Measurement.r in
    let gf = Clink.good_fractions y ~r:full ~threshold in
    let model = Clink.learn ~r:full ~good_fraction:gf in
    let bad = Scfs.classify_paths r ~y_now ~threshold in
    answer ~faults ~info:[] None (Clink.infer model r ~bad_paths:bad)
  in
  {
    name = "clink";
    descr = "prior-weighted failure-set diagnosis (Nguyen & Thiran 2007)";
    golden = Detection { min_dr = 0.3; max_fpr = 0.5 };
    estimate;
  }

(* ---- Fourier-domain segment variances (Chen, Cao & Bu) --------------- *)

let fourier =
  let estimate ~threshold input =
    tree_of input @@ fun tree ->
    on_window input [] @@ fun faults y ->
    let variances, unresolved = Fourier.variances ~tree ~y_learn:y in
    on_target input faults @@ fun faults r y_now ->
    match Plan.make ~r ~variances () with
    | exception Failure msg -> Refused ("phase-2 solve failed: " ^ msg)
    | plan ->
        let faults =
          if unresolved = 0 then faults
          else
            faults
            @ [ Printf.sprintf "%d unresolved segment variances" unresolved ]
        in
        rate_answer ~threshold ~faults ~info:[]
          (Plan.solve plan y_now).Plan.loss_rates
  in
  {
    name = "fourier";
    descr = "ECF segment-variance estimation on trees (Chen, Cao & Bu)";
    golden = Abs_err 0.08;
    estimate;
  }

(* ---- LIA ------------------------------------------------------------- *)

let lia_adapter ~name ~descr ~solver ~golden =
  let estimate ~threshold (input : Measurement.t) =
    if Matrix.rows input.Measurement.y_learn < 2 then short_window
    else
      let checked =
        Lia.infer_checked ~solver ~r:input.Measurement.r
          ~y_learn:input.Measurement.y_learn ~y_now:input.Measurement.y_now ()
      in
      let summary = Lia.health_summary checked.Lia.health in
      match (checked.Lia.health, checked.Lia.result) with
      | _, None -> Refused summary
      | Lia.Clean, Some res ->
          rate_answer ~threshold ~faults:[] ~info:[] res.Lia.loss_rates
      | _, Some res ->
          rate_answer ~threshold ~faults:[ summary ] ~info:[] res.Lia.loss_rates
  in
  { name; descr; golden; estimate }

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

let all = [ minc; em; mils; scfs; clink; fourier; lia_dense; lia_cgls ]
let names = List.map (fun e -> e.name) all
let find name = List.find_opt (fun e -> e.name = name) all
