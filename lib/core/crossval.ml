module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator
module Faults = Netsim.Faults
module Field = Obs.Field

type grid = {
  families : string list;
  sizes : int list;
  models : string list;
  faults : Faults.t list;
}

let known_families =
  [
    "tree";
    "waxman";
    "ba";
    "hier-td";
    "hier-bu";
    "planetlab";
    "dimes";
    "transit-stub";
  ]

let known_models = List.map fst Lossmodel.Loss_model.builtins

let default_grid =
  {
    families = [ "tree"; "planetlab" ];
    sizes = [ 15 ];
    models = [ "llrd1-calibrated" ];
    faults = [ Faults.none ];
  }

let parse_grid s =
  let parse_int v =
    match int_of_string_opt v with
    | Some n when n >= 2 -> n
    | Some _ -> failwith (Printf.sprintf "size %s is below the minimum of 2" v)
    | None -> failwith (Printf.sprintf "malformed size %S" v)
  in
  let values sep rest =
    String.split_on_char sep rest
    |> List.map String.trim
    |> List.filter (fun v -> v <> "")
  in
  try
    let g = ref default_grid in
    String.split_on_char ';' s
    |> List.iter (fun clause ->
           let clause = String.trim clause in
           if clause <> "" then
             match String.index_opt clause '=' with
             | None ->
                 failwith
                   (Printf.sprintf "malformed axis %S (expected key=v1,v2,..)"
                      clause)
             | Some i ->
                 let key = String.sub clause 0 i in
                 let rest =
                   String.sub clause (i + 1) (String.length clause - i - 1)
                 in
                 let nonempty vs =
                   if vs = [] then
                     failwith (Printf.sprintf "axis %S has no values" key)
                   else vs
                 in
                 (match key with
                 | "family" ->
                     let fams = nonempty (values ',' rest) in
                     List.iter
                       (fun f ->
                         if not (List.mem f known_families) then
                           failwith
                             (Printf.sprintf
                                "unknown topology family %S (expected one of \
                                 %s)"
                                f
                                (String.concat ", " known_families)))
                       fams;
                     g := { !g with families = fams }
                 | "size" ->
                     g :=
                       {
                         !g with
                         sizes = List.map parse_int (nonempty (values ',' rest));
                       }
                 | "model" ->
                     let models = nonempty (values ',' rest) in
                     List.iter
                       (fun m ->
                         if not (List.mem m known_models) then
                           failwith
                             (Printf.sprintf
                                "unknown loss model %S (expected one of %s)" m
                                (String.concat ", " known_models)))
                       models;
                     g := { !g with models }
                 | "fault" ->
                     (* |-separated alternatives: specs contain commas *)
                     let specs = nonempty (values '|' rest) in
                     let faults =
                       List.map
                         (fun spec ->
                           match Faults.parse spec with
                           | Ok t -> t
                           | Error msg ->
                               failwith
                                 (Printf.sprintf "fault spec %S: %s" spec msg))
                         specs
                     in
                     g := { !g with faults }
                 | other ->
                     failwith
                       (Printf.sprintf
                          "unknown grid axis %S (expected family, size, \
                           model, or fault)"
                          other)))
    |> fun () -> Ok !g
  with Failure msg -> Error msg

type scenario = {
  family : string;
  size : int;
  model : string;
  fault : Faults.t;
  seed : int;
}

let scenarios grid ~seeds =
  List.concat_map
    (fun family ->
      List.concat_map
        (fun size ->
          List.concat_map
            (fun model ->
              List.concat_map
                (fun fault ->
                  List.map
                    (fun seed -> { family; size; model; fault; seed })
                    seeds)
                grid.faults)
            grid.models)
        grid.sizes)
    grid.families

let scenario_label s =
  Printf.sprintf "%s/%d %s fault=%s" s.family s.size s.model
    (Faults.to_string s.fault)

type score = {
  abs_mean : float option;
  abs_max : float option;
  err_factor_median : float option;
  dr : float;
  fpr : float;
}

type outcome =
  | Scored of { score : score; health : Estimator.health; note : string }
  | Refused of string
  | Skipped of string

type cell = {
  scenario : scenario;
  estimator : string;
  outcome : outcome;
  wall_s : float;
  alloc_words : float;
}

(* --- scenario data ----------------------------------------------------- *)

let model_of_name name =
  match List.assoc_opt name Lossmodel.Loss_model.builtins with
  | Some m -> m
  | None -> failwith (Printf.sprintf "unknown loss model %S" name)

let testbed_of rng s =
  let size = s.size in
  match s.family with
  | "tree" -> Topology.Tree_gen.generate rng ~nodes:size ~max_branching:4 ()
  | "waxman" -> Topology.Waxman.generate rng ~nodes:(8 * size) ~hosts:size ()
  | "ba" ->
      Topology.Barabasi_albert.generate rng ~nodes:(8 * size) ~hosts:size
  | "hier-td" ->
      Topology.Hierarchical.generate rng ~flavour:Topology.Hierarchical.Top_down
        ~ases:(max 2 (size / 4)) ~routers_per_as:6 ~hosts:size
  | "hier-bu" ->
      Topology.Hierarchical.generate rng
        ~flavour:Topology.Hierarchical.Bottom_up ~ases:(max 2 (size / 4))
        ~routers_per_as:6 ~hosts:size
  | "planetlab" -> Topology.Overlay.planetlab_like rng ~hosts:size ()
  | "dimes" -> Topology.Overlay.dimes_like rng ~hosts:size
  | "transit-stub" -> Topology.Transit_stub.generate rng ~hosts:size ()
  | other -> failwith (Printf.sprintf "unknown topology family %S" other)

(* Regenerate a scenario's campaign from its seed: topology, [snapshots]
   Static-dynamics snapshots, fault injection over the whole measurement
   matrix, last surviving (possibly faulted) row as the target. Ground
   truth is the final original snapshot's realized per-link losses —
   under Static dynamics the congested set is constant across the
   window, so detection truth is exact even when row drops shift which
   snapshot the last faulted row came from. *)
let build ~snapshots ~probes s =
  let rng = Nstats.Rng.create s.seed in
  let tb = testbed_of rng s in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    { (Snapshot.default_config (model_of_name s.model)) with Snapshot.probes }
  in
  let sim = Simulator.run ~dynamics:Simulator.Static rng config r ~count:snapshots in
  let y, _schedule = Faults.apply s.fault sim.Simulator.y in
  let rows = Matrix.rows y in
  if rows < 2 then
    Error
      (Printf.sprintf "scenario: fault injection left %d snapshot(s), need >= 2"
         rows)
  else
    let y_learn =
      Matrix.init (rows - 1) (Matrix.cols y) (fun l i -> Matrix.get y l i)
    in
    let y_now = Matrix.row y (rows - 1) in
    let input = Measurement.make ~routing:red ~probes ~r ~y_learn ~y_now () in
    Ok (input, sim.Simulator.snapshots.(snapshots - 1))

(* --- scoring ----------------------------------------------------------- *)

let mean xs =
  if Array.length xs = 0 then Float.nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let score_answer ~threshold ~(truth : Snapshot.t) (a : Estimator.answer) =
  let actual_rates = truth.Snapshot.realized in
  let actual = Array.map (fun q -> q > threshold) actual_rates in
  let loc = Metrics.location ~actual ~inferred:a.Estimator.verdicts in
  let abs_mean, abs_max, err_factor_median =
    match a.Estimator.loss_rates with
    | None -> (None, None, None)
    | Some rates ->
        let errs =
          Metrics.absolute_errors ~actual:actual_rates ~inferred:rates
        in
        let ef = Metrics.error_factors ~actual:actual_rates ~inferred:rates in
        ( Some (mean errs),
          Some (Metrics.spread errs).Metrics.max,
          Some (Metrics.spread ef).Metrics.median )
  in
  {
    abs_mean;
    abs_max;
    err_factor_median;
    dr = loc.Metrics.dr;
    fpr = loc.Metrics.fpr;
  }

(* --- the runner -------------------------------------------------------- *)

let m_cells =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Cross-validation cells evaluated" "lia_crossval_cells_total"

let m_skipped =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Cells skipped for capability mismatch" "lia_crossval_skipped_total"

let m_refused =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Cells the backend refused on data grounds"
    "lia_crossval_refused_total"

let m_cell_seconds =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Wall seconds per estimate call (excluding data generation)"
    "lia_crossval_cell_seconds"

let evaluate ~threshold ~snapshots ~probes (est : Estimator.t) scenario =
  match build ~snapshots ~probes scenario with
  | Error reason ->
      {
        scenario;
        estimator = est.Estimator.name;
        outcome = Refused reason;
        wall_s = 0.;
        alloc_words = 0.;
      }
  | Ok (input, truth) ->
      let g0 = Obs.Event.alloc_words () in
      let t0 = Obs.Clock.now_ns () in
      let res = est.Estimator.estimate ~threshold input in
      let wall_s = Obs.Clock.seconds_since t0 in
      let alloc_words = Obs.Event.alloc_words () -. g0 in
      Obs.Metrics.incr m_cells;
      Obs.Metrics.observe m_cell_seconds wall_s;
      let outcome =
        match res with
        | Estimator.Answer a ->
            Scored
              {
                score = score_answer ~threshold ~truth a;
                health = a.Estimator.health;
                note = a.Estimator.note;
              }
        | Estimator.Refused reason ->
            Obs.Metrics.incr m_refused;
            Refused reason
        | Estimator.Skipped reason ->
            Obs.Metrics.incr m_skipped;
            Skipped reason
      in
      { scenario; estimator = est.Estimator.name; outcome; wall_s; alloc_words }

let run ?jobs ?(threshold = 0.01) ?(snapshots = 40) ?(probes = 1000)
    ~estimators ~scenarios () =
  if not (0. < threshold && threshold < 1.) then
    invalid_arg "Crossval.run: threshold outside (0, 1)";
  if snapshots < 2 then invalid_arg "Crossval.run: snapshots < 2";
  if probes <= 0 then invalid_arg "Crossval.run: probes <= 0";
  let scen = Array.of_list scenarios in
  let ests = Array.of_list estimators in
  let ne = Array.length ests in
  let n = Array.length scen * ne in
  let cells = Array.make n None in
  (* every cell regenerates its own data from the scenario seed and
     writes only its own slot: bit-identical for every [jobs] value *)
  Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n (fun idx ->
      let si = idx / ne and ei = idx mod ne in
      cells.(idx) <-
        Some (evaluate ~threshold ~snapshots ~probes ests.(ei) scen.(si)));
  Array.map (function Some c -> c | None -> assert false) cells

(* --- rendering --------------------------------------------------------- *)

let health_label = function
  | Estimator.Clean -> "clean"
  | Estimator.Degraded -> "degraded"

type agg = {
  mutable seeds : int;  (** scored + refused + skipped = cells seen *)
  mutable statuses : (string * int) list;  (** label -> count, in order *)
  mutable scores : score list;  (** reverse order *)
  mutable notes : string list;  (** distinct, reverse order *)
  mutable wall : float;
  mutable alloc : float;
}

let bump_status agg label =
  if List.mem_assoc label agg.statuses then
    agg.statuses <-
      List.map
        (fun (l, k) -> if l = label then (l, k + 1) else (l, k))
        agg.statuses
  else agg.statuses <- agg.statuses @ [ (label, 1) ]

let add_note agg note =
  if note <> "" && not (List.mem note agg.notes) then
    agg.notes <- note :: agg.notes

let fmt_opt = function None -> "       -" | Some v -> Printf.sprintf "%8.4f" v

let mean_opt xs =
  match List.filter_map (fun x -> x) xs with
  | [] -> None
  | vs -> Some (List.fold_left ( +. ) 0. vs /. float_of_int (List.length vs))

let render ?(timing = false) cells =
  let buf = Buffer.create 4096 in
  (* group by scenario point (label) then estimator, first-seen order *)
  let groups : (string, (string, agg) Hashtbl.t * string list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  let group_order = ref [] in
  Array.iter
    (fun c ->
      let label = scenario_label c.scenario in
      let by_est, est_order =
        match Hashtbl.find_opt groups label with
        | Some g -> g
        | None ->
            let g = (Hashtbl.create 16, ref []) in
            Hashtbl.add groups label g;
            group_order := label :: !group_order;
            g
      in
      let agg =
        match Hashtbl.find_opt by_est c.estimator with
        | Some a -> a
        | None ->
            let a =
              {
                seeds = 0;
                statuses = [];
                scores = [];
                notes = [];
                wall = 0.;
                alloc = 0.;
              }
            in
            Hashtbl.add by_est c.estimator a;
            est_order := c.estimator :: !est_order;
            a
      in
      agg.seeds <- agg.seeds + 1;
      agg.wall <- agg.wall +. c.wall_s;
      agg.alloc <- agg.alloc +. c.alloc_words;
      match c.outcome with
      | Scored { score; health; note } ->
          bump_status agg (health_label health);
          agg.scores <- score :: agg.scores;
          add_note agg note
      | Refused reason ->
          bump_status agg "refused";
          add_note agg reason
      | Skipped reason ->
          bump_status agg "skipped";
          add_note agg reason)
    cells;
  List.iter
    (fun label ->
      let by_est, est_order = Hashtbl.find groups label in
      let seeds =
        match !est_order with
        | [] -> 0
        | e :: _ -> (Hashtbl.find by_est e).seeds
      in
      Buffer.add_string buf
        (Printf.sprintf "== %s (%d seed%s) ==\n" label seeds
           (if seeds = 1 then "" else "s"));
      Buffer.add_string buf
        (Printf.sprintf "%-10s  %-20s  %8s  %8s  %8s  %6s  %6s%s  %s\n"
           "estimator" "status" "abs.mean" "abs.max" "errf.med" "dr" "fpr"
           (if timing then Printf.sprintf "  %9s  %9s" "wall.ms" "alloc.kw"
            else "")
           "note");
      List.iter
        (fun est ->
          let agg = Hashtbl.find by_est est in
          let status =
            String.concat ","
              (List.map (fun (l, k) -> Printf.sprintf "%s:%d" l k) agg.statuses)
          in
          let scores = List.rev agg.scores in
          let abs_mean = mean_opt (List.map (fun s -> s.abs_mean) scores) in
          let abs_max = mean_opt (List.map (fun s -> s.abs_max) scores) in
          let errf =
            mean_opt (List.map (fun s -> s.err_factor_median) scores)
          in
          let stat f =
            match scores with
            | [] -> "     -"
            | _ ->
                Printf.sprintf "%6.2f"
                  (List.fold_left (fun acc s -> acc +. f s) 0. scores
                  /. float_of_int (List.length scores))
          in
          let timing_cols =
            if timing then
              Printf.sprintf "  %9.2f  %9.0f"
                (1000. *. agg.wall /. float_of_int (max 1 agg.seeds))
                (agg.alloc /. 1000. /. float_of_int (max 1 agg.seeds))
            else ""
          in
          Buffer.add_string buf
            (Printf.sprintf "%-10s  %-20s  %s  %s  %s  %s  %s%s  %s\n" est
               status (fmt_opt abs_mean) (fmt_opt abs_max) (fmt_opt errf)
               (stat (fun s -> s.dr))
               (stat (fun s -> s.fpr))
               timing_cols
               (String.concat "; " (List.rev agg.notes))))
        (List.rev !est_order);
      Buffer.add_char buf '\n')
    (List.rev !group_order);
  Buffer.contents buf

(* --- JSONL ------------------------------------------------------------- *)

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let json_opt = function None -> "null" | Some v -> json_float v

let to_jsonl cells =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun c ->
      let s = c.scenario in
      let common =
        Printf.sprintf
          "\"family\":%s,\"size\":%d,\"model\":%s,\"fault\":%s,\"seed\":%d,\"estimator\":%s"
          (Field.json_string s.family) s.size (Field.json_string s.model)
          (Field.json_string (Faults.to_string s.fault))
          s.seed
          (Field.json_string c.estimator)
      in
      let body =
        match c.outcome with
        | Scored { score; health; note } ->
            Printf.sprintf
              "\"outcome\":\"scored\",\"health\":%s,\"note\":%s,\"abs_mean\":%s,\"abs_max\":%s,\"err_factor_median\":%s,\"dr\":%s,\"fpr\":%s"
              (Field.json_string (health_label health))
              (Field.json_string note)
              (json_opt score.abs_mean) (json_opt score.abs_max)
              (json_opt score.err_factor_median)
              (json_float score.dr) (json_float score.fpr)
        | Refused reason ->
            Printf.sprintf "\"outcome\":\"refused\",\"reason\":%s"
              (Field.json_string reason)
        | Skipped reason ->
            Printf.sprintf "\"outcome\":\"skipped\",\"reason\":%s"
              (Field.json_string reason)
      in
      Buffer.add_string buf
        (Printf.sprintf "{%s,%s,\"wall_s\":%s,\"alloc_words\":%s}\n" common
           body (json_float c.wall_s) (json_float c.alloc_words)))
    cells;
  Buffer.contents buf
