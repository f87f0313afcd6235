(* [ledger compare] over two run files, and [ledger manifest]'s check of
   BENCHMARK.json against the ledger's own tables. *)

module J = Obs.Json

let read path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | j -> j
  | exception J.Parse_error { offset; message } ->
      failwith (Printf.sprintf "%s: offset %d: %s" path offset message)

let field path j = List.fold_left (fun j k -> Option.bind j (J.member k)) (Some j) path

let floats j =
  match j with
  | Some (J.List l) -> List.filter_map J.to_float_opt l
  | Some v -> Option.to_list (J.to_float_opt v)
  | None -> []

let runs_of j =
  match J.member "runs" j with Some (J.List l) -> l | _ -> failwith "no \"runs\" in run file"

let workload_of run = Option.bind (J.member "workload" run) J.to_string_opt

(* The values one side gives for a metric: per-op samples pooled over
   its runs where the run file keeps them, else one value per run. *)
let values runs ~section name =
  let sampled = List.concat_map (fun r -> floats (field [ section; name ] r)) runs in
  if section = "samples" && sampled = [] then
    List.concat_map (fun r -> floats (field [ "metrics"; name ] r)) runs
  else sampled

let failed runs =
  List.fold_left
    (fun acc r -> acc + Option.value ~default:0 (Option.bind (J.member "failed" r) J.to_int_opt))
    0 runs

type verdict = Improved | Unchanged | Regressed | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* choosing-metrics 6.5: a spread wider than the bound leaves the metric
   unresolved, unless every new value reads better than every base one. *)
let judge (m : Metric.t) ~base ~next =
  let _, mb, _ = Stats.quartiles base and _, mn, _ = Stats.quartiles next in
  let spread xs =
    let q1, med, q3 = Stats.quartiles xs in
    if med = 0. then 0. else Float.abs ((q3 -. q1) /. med)
  in
  let better a b = match m.Metric.better with Metric.Lower -> a < b | Metric.Higher -> a > b in
  let worse =
    let d = if mb = 0. then 0. else (mn -. mb) /. Float.abs mb in
    match m.Metric.better with Metric.Lower -> d | Metric.Higher -> -.d
  in
  let verdict =
    if Float.max (spread base) (spread next) > m.Metric.bound then
      if List.for_all (fun n -> List.for_all (better n) base) next then Improved
      else Unresolved
    else if worse > m.Metric.bound then Regressed
    else if worse < -.m.Metric.bound then Improved
    else Unchanged
  in
  (worse, verdict)

let compare ~base ~next =
  let base_runs = runs_of (read base) and next_runs = runs_of (read next) in
  let names runs = List.sort_uniq String.compare (List.filter_map workload_of runs) in
  let of_workload runs w = List.filter (fun r -> workload_of r = Some w) runs in
  let ok = ref true in
  Printf.printf "%-22s %-20s %-30s %-30s %8s %6s  %s\n" "workload" "metric"
    "base median [q1, q3]" "new median [q1, q3]" "worse" "bound" "verdict";
  let row xs =
    let q1, med, q3 = Stats.quartiles xs in
    Printf.sprintf "%.5g [%.5g, %.5g]" med q1 q3
  in
  List.iter
    (fun w ->
      let b = of_workload base_runs w and n = of_workload next_runs w in
      if n = [] then begin
        ok := false;
        Printf.printf "%-22s missing from %s\n" w next
      end
      else begin
        List.iter
          (fun (m : Metric.t) ->
            let base = values b ~section:"samples" m.Metric.name
            and next = values n ~section:"samples" m.Metric.name in
            if base <> [] && next <> [] then begin
              let worse, v = judge m ~base ~next in
              if v = Regressed then ok := false;
              Printf.printf "%-22s %-20s %-30s %-30s %+7.2f%% %5.1f%%  %s\n" w m.Metric.name
                (row base) (row next) (100. *. worse) (100. *. m.Metric.bound)
                (verdict_name v)
            end)
          Metric.end_to_end;
        if failed n > failed b then begin
          ok := false;
          Printf.printf "%-22s %-20s %d failed ops against %d\n" w "failed" (failed n)
            (failed b)
        end;
        (* a layer moved by more than the base's interquartile range *)
        List.iter
          (fun (m : Metric.t) ->
            let base = values b ~section:"layers" m.Metric.name
            and next = values n ~section:"layers" m.Metric.name in
            if base <> [] && next <> [] then begin
              let q1, mb, q3 = Stats.quartiles base and _, mn, _ = Stats.quartiles next in
              if Float.abs (mn -. mb) > q3 -. q1 then
                Printf.printf "%-22s %-20s layer moved: %.5g -> %.5g %s (base IQR %.3g)\n" w
                  m.Metric.name mb mn m.Metric.unit_ (q3 -. q1)
            end)
          Metric.per_layer
      end)
    (names base_runs);
  !ok

(* --- BENCHMARK.json ---------------------------------------------------- *)

let manifest path ~run_seconds =
  let j = read path in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let str k o = Option.bind (J.member k o) J.to_string_opt in
  let list k = match J.member k j with Some (J.List l) -> l | _ -> [] in
  if Option.bind (J.member "run_seconds" j) J.to_int_opt <> Some run_seconds then
    problem "run_seconds is not %d" run_seconds;
  if list "paths" <> [ J.Str "bench/ledger" ] then problem "paths is not [\"bench/ledger\"]";
  let names = List.map (fun (w : Workload.t) -> (w.name, w.why)) Workload.all in
  let listed = List.map (fun o -> (str "name" o, str "why" o)) (list "workloads") in
  if listed <> List.map (fun (n, w) -> (Some n, Some w)) names then
    problem "workloads differ from the ledger's (names, order or reasons)";
  let check key table ~gated =
    let listed = list key in
    if List.length listed <> List.length table then problem "%s: %d metrics, ledger has %d" key
        (List.length listed) (List.length table);
    List.iter2
      (fun o (m : Metric.t) ->
        let better = match m.Metric.better with Metric.Lower -> "lower" | Metric.Higher -> "higher" in
        if str "name" o <> Some m.Metric.name || str "unit" o <> Some m.Metric.unit_
           || str "better" o <> Some better
        then problem "%s: %s differs" key m.Metric.name;
        if gated && Option.bind (J.member "bound" o) J.to_float_opt <> Some m.Metric.bound then
          problem "%s: bound of %s differs" key m.Metric.name)
      (List.filteri (fun i _ -> i < List.length table) listed)
      (List.filteri (fun i _ -> i < List.length listed) table)
  in
  check "end_to_end" Metric.end_to_end ~gated:true;
  check "per_layer" Metric.per_layer ~gated:false;
  List.iter (fun p -> prerr_endline ("manifest: " ^ p)) (List.rev !problems);
  if !problems = [] then Printf.printf "%s agrees with the ledger\n" path;
  !problems = []
