(* Post-hoc report renderer: turns the raw telemetry files the pipeline
   writes (flight-recorder dump, trace JSONL, Prometheus metrics text,
   convergence JSONL) into one operator-readable page — per-phase
   wall/alloc profile, top-N slow spans, a convergence summary table
   with residual tails, and the health verdict with quarantine counts.

   Every section degrades gracefully: inputs are independent and a
   section renders from whichever input carries its data (spans prefer
   the recorder, which has allocation attribution; the trace is the
   fallback). Numbers that vary run-to-run (wall, alloc) are kept in
   their own columns so tests can select the deterministic ones. *)

let ( let* ) = Option.bind

type span = {
  sp_name : string;
  sp_dur_us : float;
  sp_alloc_words : float option;
  sp_domain : int;
}

type iter_point = {
  it_solver : string;
  it_solve : int;
  it_iteration : int;
  it_relres : float;
}

type solve_row = {
  so_solver : string;
  so_solve : int;
  mutable so_phase : string;
  mutable so_precond : string;
  mutable so_iterations : int;
  mutable so_relres : float;
  mutable so_converged : bool option; (* None until a solver_done is seen *)
}

type data = {
  mutable spans : span list; (* reverse order of input *)
  mutable iters : iter_point list; (* reverse order of input *)
  solves : (string * int, solve_row) Hashtbl.t;
  mutable verdicts : (string * string) list; (* health, summary *)
  mutable quarantine : int;
  mutable dump_reason : string option;
  mutable dump_dropped : int;
  mutable metrics : (string * float) list;
}

let fresh () =
  {
    spans = [];
    iters = [];
    solves = Hashtbl.create 16;
    verdicts = [];
    quarantine = 0;
    dump_reason = None;
    dump_dropped = 0;
    metrics = [];
  }

let solve_row d ~solver ~solve =
  match Hashtbl.find_opt d.solves (solver, solve) with
  | Some row -> row
  | None ->
      let row =
        {
          so_solver = solver;
          so_solve = solve;
          so_phase = "-";
          so_precond = "-";
          so_iterations = 0;
          so_relres = Float.nan;
          so_converged = None;
        }
      in
      Hashtbl.add d.solves (solver, solve) row;
      row

let context_into row json =
  (match
     let* p = Json.member "phase" json in
     Json.to_string_opt p
   with
  | Some p -> row.so_phase <- p
  | None -> ());
  match
    let* p = Json.member "precond" json in
    Json.to_string_opt p
  with
  | Some p -> row.so_precond <- p
  | None -> ()

let iteration_into d ~solver ~solve json =
  let row = solve_row d ~solver ~solve in
  context_into row json;
  match
    let* i = Json.member "iteration" json in
    let* i = Json.to_int_opt i in
    let* r = Json.member "relres" json in
    let* r = Json.to_float_opt r in
    Some (i, r)
  with
  | None -> ()
  | Some (iteration, relres) ->
      if iteration > row.so_iterations then begin
        row.so_iterations <- iteration;
        row.so_relres <- relres
      end;
      d.iters <-
        {
          it_solver = solver;
          it_solve = solve;
          it_iteration = iteration;
          it_relres = relres;
        }
        :: d.iters

(* one recorder-dump line (header or event) *)
let recorder_line d json =
  let kind =
    Option.value ~default:""
      (let* k = Json.member "kind" json in
       Json.to_string_opt k)
  in
  let name =
    Option.value ~default:""
      (let* n = Json.member "name" json in
       Json.to_string_opt n)
  in
  let args = Option.value ~default:(Json.Obj []) (Json.member "args" json) in
  match kind with
  | "recorder_dump" ->
      d.dump_reason <-
        (let* r = Json.member "reason" json in
         Json.to_string_opt r);
      d.dump_dropped <-
        Option.value ~default:0
          (let* x = Json.member "dropped" json in
           Json.to_int_opt x)
  | "span_end" ->
      let dur =
        let* x = Json.member "dur_us" args in
        Json.to_float_opt x
      in
      let domain =
        Option.value ~default:0
          (let* x = Json.member "domain" json in
           Json.to_int_opt x)
      in
      (match dur with
      | None -> ()
      | Some dur_us ->
          d.spans <-
            {
              sp_name = name;
              sp_dur_us = dur_us;
              sp_alloc_words =
                (let* x = Json.member "alloc_words" args in
                 Json.to_float_opt x);
              sp_domain = domain;
            }
            :: d.spans)
  | "solver_iter" ->
      (match
         let* s = Json.member "solve" args in
         Json.to_int_opt s
       with
      | None -> ()
      | Some solve -> iteration_into d ~solver:name ~solve args)
  | "solver_done" -> (
      match
        let* s = Json.member "solve" args in
        Json.to_int_opt s
      with
      | None -> ()
      | Some solve ->
          let row = solve_row d ~solver:name ~solve in
          context_into row args;
          (match
             let* i = Json.member "iterations" args in
             Json.to_int_opt i
           with
          | Some i -> row.so_iterations <- i
          | None -> ());
          (match
             let* r = Json.member "relres" args in
             Json.to_float_opt r
           with
          | Some r -> row.so_relres <- r
          | None -> ());
          row.so_converged <-
            (let* c = Json.member "converged" args in
             Json.to_bool_opt c))
  | "verdict" ->
      let health =
        Option.value ~default:"?"
          (let* h = Json.member "health" args in
           Json.to_string_opt h)
      in
      let summary =
        Option.value ~default:""
          (let* s = Json.member "summary" args in
           Json.to_string_opt s)
      in
      d.verdicts <- (health, summary) :: d.verdicts
  | "quarantine" -> d.quarantine <- d.quarantine + 1
  | _ -> ()

(* trace JSONL: "X" complete events become spans (no alloc attribution) *)
let trace_line d json =
  match
    let* ph = Json.member "ph" json in
    Json.to_string_opt ph
  with
  | Some "X" ->
      let name =
        Option.value ~default:""
          (let* n = Json.member "name" json in
           Json.to_string_opt n)
      in
      (match
         let* x = Json.member "dur" json in
         Json.to_float_opt x
       with
      | None -> ()
      | Some dur_us ->
          d.spans <-
            {
              sp_name = name;
              sp_dur_us = dur_us;
              sp_alloc_words = None;
              sp_domain =
                Option.value ~default:0
                  (let* x = Json.member "tid" json in
                   Json.to_int_opt x);
            }
            :: d.spans)
  | _ -> ()

let convergence_line d json =
  match
    let* s = Json.member "solver" json in
    let* solver = Json.to_string_opt s in
    let* v = Json.member "solve" json in
    let* solve = Json.to_int_opt v in
    Some (solver, solve)
  with
  | None -> ()
  | Some (solver, solve) -> iteration_into d ~solver ~solve json

let lines content = String.split_on_char '\n' content

let feed_jsonl d per_line content =
  List.iter
    (fun line ->
      let line = String.trim line in
      (* tolerate the trace's array framing: "[" opener, "," separators *)
      let line =
        if String.length line > 0 && line.[String.length line - 1] = ',' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if String.length line > 0 && line.[0] = '{' then
        match Json.of_string_opt line with
        | Some json -> per_line d json
        | None -> ())
    (lines content)

let feed_metrics d content =
  List.iter
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | None -> ()
        | Some i -> (
            let name = String.sub line 0 i in
            let rest = String.sub line (i + 1) (String.length line - i - 1) in
            match float_of_string_opt (String.trim rest) with
            | Some v -> d.metrics <- (name, v) :: d.metrics
            | None -> ()))
    (lines content)

let metric d name = List.assoc_opt name d.metrics

(* ---- rendering ---- *)

let fmt_ms us = Printf.sprintf "%.1f" (us /. 1000.)

let fmt_words = function
  | None -> "-"
  | Some w -> Printf.sprintf "%.0f" w

let fmt_relres r =
  if Float.is_nan r then "-" else Printf.sprintf "%.3e" r

let section b title =
  Printf.bprintf b "%s\n%s\n" title (String.make (String.length title) '-')

let render_phases b d =
  if d.spans <> [] then begin
    section b "Per-phase profile";
    let tbl = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun sp ->
        match Hashtbl.find_opt tbl sp.sp_name with
        | None ->
            Hashtbl.add tbl sp.sp_name
              (ref 1, ref sp.sp_dur_us, ref sp.sp_alloc_words);
            order := sp.sp_name :: !order
        | Some (n, dur, alloc) ->
            incr n;
            dur := !dur +. sp.sp_dur_us;
            alloc :=
              (match (!alloc, sp.sp_alloc_words) with
              | Some a, Some w -> Some (a +. w)
              | got, None -> got
              | None, got -> got))
      (List.rev d.spans);
    let rows =
      List.rev_map
        (fun name ->
          let n, dur, alloc = Hashtbl.find tbl name in
          (name, !n, !dur, !alloc))
        !order
    in
    let rows =
      List.sort (fun (_, _, a, _) (_, _, b, _) -> Float.compare b a) rows
    in
    Printf.bprintf b "%-36s %7s %12s %14s\n" "phase" "calls" "wall_ms"
      "alloc_words";
    List.iter
      (fun (name, n, dur, alloc) ->
        Printf.bprintf b "%-36s %7d %12s %14s\n" name n (fmt_ms dur)
          (fmt_words alloc))
      rows;
    Buffer.add_char b '\n'
  end

let render_top b d ~top =
  if d.spans <> [] && top > 0 then begin
    section b (Printf.sprintf "Top %d slow spans" top);
    let sorted =
      List.sort (fun a b -> Float.compare b.sp_dur_us a.sp_dur_us) d.spans
    in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | x :: tl -> x :: take (n - 1) tl
    in
    Printf.bprintf b "%-36s %12s %7s\n" "span" "wall_ms" "domain";
    List.iter
      (fun sp ->
        Printf.bprintf b "%-36s %12s %7d\n" sp.sp_name (fmt_ms sp.sp_dur_us)
          sp.sp_domain)
      (take top sorted);
    Buffer.add_char b '\n'
  end

let solve_rows d =
  Hashtbl.fold (fun _ row acc -> row :: acc) d.solves []
  |> List.sort (fun a b ->
         match String.compare a.so_solver b.so_solver with
         | 0 -> Int.compare a.so_solve b.so_solve
         | c -> c)

let render_convergence b d ~tail =
  let rows = solve_rows d in
  if rows <> [] then begin
    section b "Convergence";
    Printf.bprintf b "%-6s %-6s %-8s %-13s %6s %13s %s\n" "solver" "solve"
      "phase" "precond" "iters" "final_relres" "converged";
    List.iter
      (fun r ->
        Printf.bprintf b "%-6s %-6d %-8s %-13s %6d %13s %s\n" r.so_solver
          r.so_solve r.so_phase r.so_precond r.so_iterations
          (fmt_relres r.so_relres)
          (match r.so_converged with
          | Some true -> "yes"
          | Some false -> "NO"
          | None -> "-"))
      rows;
    Buffer.add_char b '\n';
    (* residual tail of the most interesting solve: the first
       non-converged one, else the last solve seen *)
    let focus =
      match List.find_opt (fun r -> r.so_converged = Some false) rows with
      | Some r -> Some r
      | None -> ( match List.rev rows with r :: _ -> Some r | [] -> None)
    in
    match focus with
    | None -> ()
    | Some r ->
        let points =
          List.filter
            (fun p -> p.it_solver = r.so_solver && p.it_solve = r.so_solve)
            (List.rev d.iters)
          |> List.sort_uniq (fun a b ->
                 Int.compare a.it_iteration b.it_iteration)
        in
        if points <> [] && tail > 0 then begin
          let n = List.length points in
          let tail_points =
            List.filteri (fun i _ -> i >= n - tail) points
          in
          section b
            (Printf.sprintf "Residual tail (%s solve %d, last %d of %d \
                             iterations)"
               r.so_solver r.so_solve
               (List.length tail_points)
               n);
          Printf.bprintf b "%6s %13s\n" "iter" "relres";
          List.iter
            (fun p ->
              Printf.bprintf b "%6d %13s\n" p.it_iteration
                (fmt_relres p.it_relres))
            tail_points;
          Buffer.add_char b '\n'
        end
  end

let render_health b d =
  let have_metrics = d.metrics <> [] in
  if d.verdicts <> [] || d.quarantine > 0 || have_metrics then begin
    section b "Health";
    (match List.rev d.verdicts with
    | [] ->
        (* fall back to the metrics counters *)
        let count n = match metric d n with Some v -> v | None -> 0. in
        if have_metrics then
          let refused = count "lia_refused_total" in
          let degraded = count "lia_degraded_total" in
          let verdict =
            if refused > 0. then "refused"
            else if degraded > 0. then "degraded"
            else "clean"
          in
          Printf.bprintf b "verdict: %s\n" verdict
    | vs ->
        List.iter
          (fun (health, summary) ->
            if summary = "" || summary = health then
              Printf.bprintf b "verdict: %s\n" health
            else Printf.bprintf b "verdict: %s — %s\n" health summary)
          vs);
    if d.quarantine > 0 then
      Printf.bprintf b "quarantined rows (recorder): %d\n" d.quarantine;
    List.iter
      (fun (name, label) ->
        match metric d name with
        | Some v when v > 0. -> Printf.bprintf b "%s: %.0f\n" label v
        | _ -> ())
      [
        ("lia_quarantine_rows_total", "quarantined rows");
        ("lia_quarantine_cells_total", "scrubbed cells");
        ("lia_quarantine_duplicates_total", "duplicate rows");
        ("lia_solver_nonconverged_total", "nonconverged solves");
        ("lia_degraded_total", "degraded runs");
        ("lia_refused_total", "refused runs");
      ];
    Buffer.add_char b '\n'
  end

let render ?recorder ?trace ?metrics ?convergence ?(top = 5) ?(tail = 8) () =
  let d = fresh () in
  Option.iter (feed_jsonl d recorder_line) recorder;
  Option.iter (feed_jsonl d trace_line) trace;
  Option.iter (feed_jsonl d convergence_line) convergence;
  Option.iter (feed_metrics d) metrics;
  let b = Buffer.create 4096 in
  (match d.dump_reason with
  | Some reason ->
      Printf.bprintf b "Flight recorder dump: reason=%s" reason;
      if d.dump_dropped > 0 then
        Printf.bprintf b " (%d events dropped)" d.dump_dropped;
      Buffer.add_string b "\n\n"
  | None -> ());
  render_phases b d;
  render_top b d ~top;
  render_convergence b d ~tail;
  render_health b d;
  let out = Buffer.contents b in
  if out = "" then "report: no telemetry found in the given inputs\n" else out
