(* Post-hoc report renderer: turns the raw telemetry files the pipeline
   writes (flight-recorder dump, trace JSONL, Prometheus metrics text,
   convergence JSONL) into one operator-readable page — per-phase
   wall/alloc profile, top-N slow spans, a convergence summary table
   with residual tails, and the health verdict with quarantine counts.

   The three JSONL outputs are views of one event stream, so every line
   of each decodes back into a Recorder.event and one fold consumes
   them all. Sections render from whichever events arrived (only the
   recorder's span_end events carry allocation words). Numbers that
   vary run-to-run (wall, alloc) are kept in their own columns so tests
   can select the deterministic ones. *)

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

(* ---- decoding: every JSONL line becomes one Recorder.event ---- *)

(* json_float writes non-finite floats as null; integral numbers read
   back as Int (the text cannot tell 2 from 2.0) *)
let field_of_json = function
  | Json.Str s -> Some (Field.Str s)
  | Json.Bool b -> Some (Field.Bool b)
  | Json.Num x when Float.is_integer x && Float.abs x < 0x1p62 ->
      Some (Field.Int (int_of_float x))
  | Json.Num x -> Some (Field.Float x)
  | Json.Null -> Some (Field.Float Float.nan)
  | Json.List _ | Json.Obj _ -> None

let fields_of =
  List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (field_of_json v))

(* The three outputs are told apart by shape: a dump line has "kind", a
   trace line "ph", a convergence line "solver". *)
let event_of members =
  let get k = List.assoc_opt k members in
  let str k = Option.bind (get k) Json.to_string_opt in
  let int k = Option.value ~default:0 (Option.bind (get k) Json.to_int_opt) in
  let us k =
    Option.fold ~none:0L ~some:Int64.of_float (Option.bind (get k) Json.to_float_opt)
  in
  let args = match get "args" with Some (Json.Obj a) -> fields_of a | _ -> [] in
  let event ?(domain = int "domain") ?(name = Option.value ~default:"" (str "name"))
      kind ts_us fields =
    Some { Recorder.seq = int "seq"; domain; ts_us; kind; name; fields }
  in
  match (str "kind", str "ph", str "solver") with
  | Some kind, _, _ ->
      (* a dump header carries its fields at top level, an event under args *)
      let fixed = [ "kind"; "name"; "domain"; "seq"; "ts_us" ] in
      event kind (us "ts_us")
        (if get "args" <> None then args
         else fields_of (List.filter (fun (k, _) -> not (List.mem k fixed)) members))
  | None, Some "X", _ -> (
      match (get "dur", Option.bind (get "dur") Json.to_float_opt) with
      | Some dur, Some d ->
          event ~domain:(int "tid") "span_end"
            (Int64.add (us "ts") (Int64.of_float d))
            (args @ fields_of [ ("dur_us", dur) ])
      | _ -> None)
  | None, Some "i", _ -> event ~domain:(int "tid") "instant" (us "ts") args
  | None, None, Some solver ->
      event ~name:solver "solver_iter" 0L
        (fields_of (List.remove_assoc "solver" members))
  | _ -> None

let decode line =
  let line = String.trim line in
  (* tolerate the trace's array framing: "[" opener, "," separators *)
  let n = String.length line in
  let line = if n > 0 && line.[n - 1] = ',' then String.sub line 0 (n - 1) else line in
  match Json.of_string_opt line with
  | Some (Json.Obj members) -> event_of members
  | _ -> None

(* ---- the fold ---- *)

let as_str = function Some (Field.Str s) -> Some s | _ -> None

let as_int = function Some (Field.Int i) -> Some i | _ -> None

let as_float = function
  | Some (Field.Int i) -> Some (float_of_int i)
  | Some (Field.Float x) -> Some x
  | _ -> None

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

let add d (e : Recorder.event) =
  let get k = List.assoc_opt k e.fields in
  let solve_row () =
    Option.map (fun solve -> solve_row d ~solver:e.name ~solve) (as_int (get "solve"))
  in
  let context row =
    Option.iter (fun p -> row.so_phase <- p) (as_str (get "phase"));
    Option.iter (fun p -> row.so_precond <- p) (as_str (get "precond"))
  in
  match e.kind with
  | "recorder_dump" ->
      d.dump_reason <- as_str (get "reason");
      d.dump_dropped <- Option.value ~default:0 (as_int (get "dropped"))
  | "span_end" ->
      Option.iter
        (fun dur_us ->
          d.spans <-
            {
              sp_name = e.name;
              sp_dur_us = dur_us;
              sp_alloc_words = as_float (get "alloc_words");
              sp_domain = e.domain;
            }
            :: d.spans)
        (as_float (get "dur_us"))
  | "solver_iter" -> (
      match (solve_row (), as_int (get "iteration"), as_float (get "relres")) with
      | Some row, Some iteration, Some relres ->
          context row;
          if iteration > row.so_iterations then begin
            row.so_iterations <- iteration;
            row.so_relres <- relres
          end;
          d.iters <-
            {
              it_solver = row.so_solver;
              it_solve = row.so_solve;
              it_iteration = iteration;
              it_relres = relres;
            }
            :: d.iters
      | Some row, _, _ -> context row
      | None, _, _ -> ())
  | "solver_done" ->
      Option.iter
        (fun row ->
          context row;
          Option.iter (fun i -> row.so_iterations <- i) (as_int (get "iterations"));
          Option.iter (fun r -> row.so_relres <- r) (as_float (get "relres"));
          row.so_converged <-
            (match get "converged" with Some (Field.Bool c) -> Some c | _ -> None))
        (solve_row ())
  | "verdict" ->
      d.verdicts <-
        ( Option.value ~default:"?" (as_str (get "health")),
          Option.value ~default:"" (as_str (get "summary")) )
        :: d.verdicts
  | "quarantine" -> d.quarantine <- d.quarantine + 1
  | _ -> ()

let lines content = String.split_on_char '\n' content

let feed_events d content =
  List.iter (fun line -> Option.iter (add d) (decode line)) (lines content)

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
  List.iter (Option.iter (feed_events d)) [ recorder; trace; convergence ];
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
