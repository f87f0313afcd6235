module Matrix = Linalg.Matrix

let m_rows =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Snapshot rows quarantined at ingest" "lia_quarantine_rows_total"

let m_cells =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Out-of-range measurement cells neutralized at ingest"
    "lia_quarantine_cells_total"

let m_duplicates =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Duplicate snapshot rows dropped at ingest"
    "lia_quarantine_duplicates_total"

let g_dropped =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Snapshots quarantined by the most recent ingest scrub"
    "lia_ingest_dropped_snapshots"

type reason =
  | All_missing
  | Excess_missing of { missing : int; total : int }
  | Duplicate_of of int

type report = {
  total : int;
  kept : int array;
  quarantined : (int * reason) list;
  missing_cells : int;
  corrupt_cells : int;
}

let reason_to_string = function
  | All_missing -> "all measurements missing"
  | Excess_missing { missing; total } ->
      Printf.sprintf "%d/%d measurements missing" missing total
  | Duplicate_of l -> Printf.sprintf "duplicate of snapshot %d" l

let clean r =
  r.quarantined = [] && r.missing_cells = 0 && r.corrupt_cells = 0

let summary r =
  let all = ref 0 and excess = ref 0 and dup = ref 0 in
  List.iter
    (fun (_, reason) ->
      match reason with
      | All_missing -> incr all
      | Excess_missing _ -> incr excess
      | Duplicate_of _ -> incr dup)
    r.quarantined;
  let reasons =
    List.filter_map
      (fun (n, label) ->
        if !n > 0 then Some (Printf.sprintf "%d %s" !n label) else None)
      [ (all, "all-missing"); (excess, "excess-missing"); (dup, "duplicate") ]
  in
  Printf.sprintf "kept %d/%d snapshots%s" (Array.length r.kept) r.total
    (if reasons = [] then ""
     else
       Printf.sprintf " (quarantined %d: %s)"
         (List.length r.quarantined)
         (String.concat ", " reasons))

(* A valid measurement is a finite log success rate <= 0. NaN is a
   missing measurement; everything else is corrupt and downgraded to
   missing after being counted. *)
let cell_valid x = Float.is_finite x && x <= 0.

(* the row rule: a row is dropped when every cell is missing, or when
   more than [max_missing_fraction] of them are *)
let max_missing_fraction = 0.5

let missing_reason ~max_missing_fraction ~missing ~total =
  if missing = total && total > 0 then Some All_missing
  else if
    float_of_int missing > max_missing_fraction *. float_of_int (max 1 total)
  then Some (Excess_missing { missing; total })
  else None

let row_key row =
  let b = Bytes.create (8 * Array.length row) in
  Array.iteri (fun i x -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float x)) row;
  Bytes.unsafe_to_string b

let scrub ?(max_missing_fraction = max_missing_fraction) y =
  let m = Matrix.rows y and np = Matrix.cols y in
  let corrupt_cells = ref 0 and missing_cells = ref 0 in
  let kept = ref [] and quarantined = ref [] and n_dup = ref 0 in
  let seen = Hashtbl.create (2 * m) in
  let rows = Array.make m [||] in
  for l = 0 to m - 1 do
    let row = Array.init np (fun i -> Matrix.get y l i) in
    let missing = ref 0 in
    Array.iteri
      (fun i x ->
        if not (cell_valid x) then begin
          if not (Float.is_nan x) then incr corrupt_cells;
          row.(i) <- Float.nan;
          incr missing
        end)
      row;
    rows.(l) <- row;
    match missing_reason ~max_missing_fraction ~missing:!missing ~total:np with
    | Some reason -> quarantined := (l, reason) :: !quarantined
    | None -> (
        let key = row_key row in
        match Hashtbl.find_opt seen key with
        | Some first ->
            incr n_dup;
            quarantined := (l, Duplicate_of first) :: !quarantined
        | None ->
            Hashtbl.add seen key l;
            missing_cells := !missing_cells + !missing;
            kept := l :: !kept)
  done;
  let kept = Array.of_list (List.rev !kept) in
  let report =
    {
      total = m;
      kept;
      quarantined = List.rev !quarantined;
      missing_cells = !missing_cells;
      corrupt_cells = !corrupt_cells;
    }
  in
  Obs.Metrics.add m_rows (List.length report.quarantined);
  Obs.Metrics.add m_cells report.corrupt_cells;
  Obs.Metrics.add m_duplicates !n_dup;
  Obs.Metrics.set g_dropped (float_of_int (List.length report.quarantined));
  List.iter
    (fun (l, reason) ->
      Obs.Event.emit ~kind:"quarantine" "quarantine.row"
        ~fields:
          [
            ("row", Obs.Field.Int l);
            ("reason", Obs.Field.Str (reason_to_string reason));
          ])
    report.quarantined;
  if report.quarantined <> [] then
    Obs.Event.emit ~kind:"instant" "quarantine.rows"
      ~fields:
        [
          ("quarantined", Obs.Field.Int (List.length report.quarantined));
          ("total", Obs.Field.Int m);
        ];
  let out = Matrix.init (Array.length kept) np (fun l i -> rows.(kept.(l)).(i)) in
  (out, report)

type vector_report = {
  valid : int array;
  v_missing : int;
  v_corrupt : int;
}

(* the cell rule over one vector, counting the corrupt cells *)
let classify v =
  let valid = ref [] and missing = ref 0 and corrupt = ref 0 in
  for i = Array.length v - 1 downto 0 do
    let x = v.(i) in
    if cell_valid x then valid := i :: !valid
    else if Float.is_nan x then incr missing
    else incr corrupt
  done;
  Obs.Metrics.add m_cells !corrupt;
  { valid = Array.of_list !valid; v_missing = !missing; v_corrupt = !corrupt }

let scrub_vector v =
  let rep = classify v in
  (Array.map (fun x -> if cell_valid x then x else Float.nan) v, rep)

let unusable_row rep =
  let missing = rep.v_missing + rep.v_corrupt in
  missing_reason ~max_missing_fraction ~missing
    ~total:(Array.length rep.valid + missing)

let restrict_target r y =
  let rep = classify y in
  if Array.length rep.valid = Array.length y then (r, y, rep)
  else
    ( Linalg.Sparse.select_rows r rep.valid,
      Array.map (fun i -> y.(i)) rep.valid,
      rep )
