(* ledger — the LIA benchmark.

     ledger bench --cli PATH --workload W --seed N --seconds S --trace 0|1
         one workload: generates its inputs, measures them in two fresh
         processes, prints the metrics as "workload metric value unit"
         lines, then one JSON summary line
     ledger run --cli PATH [--workload W ...] [--seed N] [--seconds S]
                [--traced] [--out DIR] [--smoke]
         every workload (or those named), each in a fresh process; writes
         the per-op samples to DIR/run.json for [compare]
     ledger compare BASE.json NEW.json
         per (workload, metric): medians, quartiles, delta and verdict
     ledger manifest BENCHMARK.json
         checks the manifest against the metric and workload tables

   PATH is the built [lia_cli], which the parity check runs. Every
   command exits non-zero when a check fails. *)

let run_seconds = 10
let default_seed = 1

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

let print_metric workload name value =
  let unit_ = match Metric.find name with Some m -> m.Metric.unit_ | None -> "" in
  Printf.printf "%s %s %.6g %s\n%!" workload name value unit_

let layer_value = function [] -> 0. | xs -> Stats.median xs

let detail (r : Measure.result) ~correct =
  let nums xs = Stats.Arr (List.map (fun x -> Stats.Num x) xs) in
  Stats.Obj
    [
      ("workload", Stats.Str r.Measure.workload);
      ("seed", Stats.Int r.Measure.seed);
      ("host_slowdown", Stats.Num r.Measure.slowdown);
      ("correct", Stats.Bool correct);
      ("attempted", Stats.Int r.Measure.attempted);
      ("failed", Stats.Int r.Measure.failed);
      ("failures", Stats.Arr (List.map (fun s -> Stats.Str s) r.Measure.failures));
      ( "metrics",
        Stats.Obj (List.map (fun (k, v) -> (k, Stats.Num v)) (Metric.values r)) );
      ( "samples",
        Stats.Obj
          [
            ("setup_s", nums r.Measure.setups);
            ("latency_ms_p50", nums (List.map (fun s -> s *. 1e3) r.Measure.latencies));
          ] );
      ("layers", Stats.Obj (List.map (fun (k, xs) -> (k, nums xs)) r.Measure.layers));
    ]

(* --- bench: one workload ---------------------------------------------- *)

(* Every run makes the CLI parity check, so the CLI must be given. *)
let require_cli = function
  | None -> fail "--cli PATH (the built lia_cli) is required"
  | Some path when not (Sys.file_exists path) -> fail "--cli %s: no such file" path
  | Some path -> path

(* Report a measured run; exits non-zero when a check failed. *)
let report cfg (w : Workload.t) (r : Measure.result) =
  let correct = r.Measure.failures = [] in
  List.iter (fun f -> prerr_endline ("check failed: " ^ f)) r.Measure.failures;
  let e2e = Metric.values r in
  let layers = List.map (fun (k, xs) -> (k, layer_value xs)) r.Measure.layers in
  List.iter (fun (k, v) -> print_metric w.name k v) e2e;
  Option.iter
    (fun (label, v, n) -> Printf.printf "%s %s %.6g ms n=%d\n" w.name label v n)
    (Metric.tail r);
  Printf.printf "%s error_rate %.6g fraction\n" w.name
    (float_of_int r.Measure.failed /. float_of_int r.Measure.attempted);
  (* wall time is about reported time x host_slowdown *)
  Printf.printf "%s host_slowdown %.6g ratio\n" w.name r.Measure.slowdown;
  List.iter (fun (k, v) -> print_metric w.name k v) layers;
  Measure.write_file
    (Filename.concat cfg.Measure.out ("result-" ^ w.name ^ ".json"))
    (Stats.to_string (detail r ~correct));
  let metrics =
    List.map
      (fun (k, v) ->
        let unit_ = (Option.get (Metric.find k)).Metric.unit_ in
        (k, Stats.Obj [ ("value", Stats.Num v); ("unit", Stats.Str unit_) ]))
      (if cfg.Measure.traced then layers else e2e)
  in
  print_endline
    (Stats.to_string
       (Stats.Obj
          [
            ("correct", Stats.Bool correct);
            ("attempted", Stats.Int r.Measure.attempted);
            ("failed", Stats.Int r.Measure.failed);
            ("metrics", Stats.Obj metrics);
          ]));
  if not correct then exit 1

(* Files the stages of one workload hand on, in the output directory. *)
let stage_file out (w : Workload.t) kind = Filename.concat out (kind ^ "-" ^ w.name ^ ".bin")

let save file v = Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc v [])
let load file = In_channel.with_open_bin file Marshal.from_channel

(* Generate the inputs here, then measure them in two fresh processes,
   one after the other: the reference pass, then the timed run. The
   generator's garbage then counts towards neither's peak heap, and the
   reference pass's heap and allocation counts depend only on the fixed
   reference inputs. *)
let generate_then_measure args (w : Workload.t) ~seed ~out =
  let file = stage_file out w in
  save (file "inputs") (Workload.generate w w.timed ~seed);
  save (file "reference-inputs") (Workload.reference w);
  let stage name =
    let argv = Array.concat [ [| Sys.executable_name |]; args; [| "--stage"; name |] ] in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr in
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED n -> n
    | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> 2
  in
  let status = match stage "reference" with 0 -> stage "timed" | n -> n in
  List.iter
    (fun kind -> if Sys.file_exists (file kind) then Sys.remove (file kind))
    [ "inputs"; "reference-inputs"; "reference" ];
  exit status

let bench args =
  let workload = ref "" and seed = ref default_seed in
  let seconds = ref (float_of_int run_seconds) and trace = ref 0 in
  let cli = ref None and out = ref "_ledger" and smoke = ref false in
  let stage = ref None in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 also make the traced run");
      ("--cli", Arg.String (fun s -> cli := Some s), "PATH lia_cli for the parity check");
      ("--out", Arg.Set_string out, "DIR where traces and results go");
      ("--smoke", Arg.Set smoke, " 6-8 host variant, one pass over 3 inputs");
      ( "--stage",
        Arg.Symbol ([ "reference"; "timed" ], fun s -> stage := Some s),
        " measure the generated inputs (internal)" );
    ]
    (fun a -> fail "unexpected argument %S" a)
    "ledger bench --cli PATH --workload NAME [options]";
  let w =
    match Workload.find !workload with
    | Some w -> if !smoke then Workload.smoke w else w
    | None ->
        fail "unknown workload %S (known: %s)" !workload
          (String.concat ", " (List.map (fun w -> w.Workload.name) Workload.all))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  let cli = require_cli !cli in
  Measure.mkdir_p !out;
  let file = stage_file !out w in
  match !stage with
  | None -> generate_then_measure args w ~seed:!seed ~out:!out
  | Some "reference" ->
      save (file "reference") (Measure.reference_pass w (load (file "reference-inputs")))
  | Some _ ->
      let cfg =
        {
          Measure.seconds = (if !smoke then 0. else !seconds);
          traced = !trace = 1;
          cli;
          out = !out;
        }
      in
      report cfg w
        (Measure.run cfg w (load (file "inputs")) ~reference:(load (file "reference")))

(* --- run: every workload, one fresh process each ------------------------ *)

let run args =
  let workloads = ref [] and out = ref "_ledger" and cli = ref None and forward = ref [] in
  let pass flag = Arg.String (fun v -> forward := !forward @ [ flag; v ]) in
  Arg.parse_argv ~current:(ref 0) args
    [
      ("--workload", Arg.String (fun s -> workloads := !workloads @ [ s ]), "NAME (repeatable)");
      ("--out", Arg.String (fun d -> out := d; forward := !forward @ [ "--out"; d ]),
       "DIR where traces and results go; the run file is DIR/run.json");
      ("--seed", pass "--seed", "N input seed");
      ("--seconds", pass "--seconds", "S length of each timed loop");
      ("--cli", Arg.String (fun s -> cli := Some s), "PATH lia_cli for the parity check");
      ("--traced", Arg.Unit (fun () -> forward := !forward @ [ "--trace"; "1" ]),
       " also make the traced runs");
      ("--smoke", Arg.Unit (fun () -> forward := !forward @ [ "--smoke" ]),
       " 6-8 host variants, one pass over 3 inputs each");
    ]
    (fun a -> fail "unexpected argument %S" a)
    "ledger run --cli PATH [options]";
  let forward = [ "--cli"; require_cli !cli ] @ !forward in
  let names =
    if !workloads = [] then List.map (fun w -> w.Workload.name) Workload.all else !workloads
  in
  let ok = ref true and details = ref [] in
  List.iter
    (fun name ->
      let file = Filename.concat !out ("result-" ^ name ^ ".json") in
      if Sys.file_exists file then Sys.remove file;
      let argv = [ Sys.executable_name; "bench"; "--workload"; name ] @ forward in
      let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list argv) in
      let lines = In_channel.input_lines ic in
      (* the child's last line is its JSON summary; the run file has more *)
      List.iteri (fun i l -> if i < List.length lines - 1 then print_endline l) lines;
      (match Unix.close_process_in ic with Unix.WEXITED 0 -> () | _ -> ok := false);
      match In_channel.with_open_bin file In_channel.input_all with
      | d when Obs.Json.of_string_opt d <> None -> details := d :: !details
      | _ | (exception Sys_error _) ->
          ok := false;
          prerr_endline ("ledger: no result from " ^ name))
    names;
  let path = Filename.concat !out "run.json" in
  Measure.write_file path
    (Printf.sprintf "{\"runs\": [\n%s\n]}\n" (String.concat ",\n" (List.rev !details)));
  Printf.printf "wrote %s\n" path;
  if not !ok then exit 1

let () =
  let argv = Sys.argv in
  if Array.length argv < 2 then fail "usage: ledger bench|run|compare|manifest ...";
  let rest = Array.sub argv 1 (Array.length argv - 1) in
  try
    match argv.(1) with
    | "bench" -> bench rest
    | "run" -> run rest
    | "compare" when Array.length argv = 4 ->
        if not (Compare.compare ~base:argv.(2) ~next:argv.(3)) then exit 1
    | "manifest" when Array.length argv = 3 ->
        if not (Compare.manifest argv.(2) ~run_seconds) then exit 1
    | cmd -> fail "unknown command or arguments: %s" cmd
  with
  | Arg.Bad msg | Arg.Help msg ->
      prerr_string msg;
      exit 2
