module Matrix = Linalg.Matrix

(* the primitive Printf calls for "%.17g", without interpreting the
   format again for every cell *)
external format_float : string -> float -> string = "caml_format_float"

let to_string y =
  let b = Buffer.create 65536 in
  Printf.bprintf b "netloss-measurements 1 %d %d\n" (Matrix.rows y) (Matrix.cols y);
  for l = 0 to Matrix.rows y - 1 do
    for i = 0 to Matrix.cols y - 1 do
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (format_float "%.17g" (Matrix.get y l i))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.contents b

module Scan = Topology.Scan

(* Strict loading takes a measurement as a log success rate: finite and
   <= 0 (success rate in (0, 1]). Anything else is corrupt unless the
   caller opted into permissive loading for quarantine-aware ingest. *)
let strict_error x w =
  if Float.is_nan x then Printf.sprintf "missing measurement (NaN) %S" w
  else if not (Float.is_finite x) then Printf.sprintf "non-finite measurement %S" w
  else Printf.sprintf "measurement %S is a positive log success rate (success rate > 1)" w

(* One pass: each cell is read straight into the matrix's row-major
   storage while the lines are counted. A row's first diagnostic (its
   width, then its first bad cell) is held until the row count has been
   checked, since a wrong count is reported first; later rows are then
   only counted. *)
let of_string ?(path = "<string>") ?(strict = true) s =
  let c = Scan.create ~path s in
  if not (Scan.next_line c) then
    failwith (Printf.sprintf "%s: empty measurement file" path);
  let hline = Scan.line c in
  if
    not
      (Scan.fields c = 4
      && Scan.field_is c 0 "netloss-measurements"
      && Scan.field_is c 1 "1")
  then
    raise
      (Scan.error c
         "missing \"netloss-measurements 1 <snapshots> <paths>\" header");
  let count i what =
    let w = Scan.field c i in
    match int_of_string_opt w with
    | Some v when v >= 0 -> v
    | _ -> raise (Scan.error c (Printf.sprintf "bad %s %S in header" what w))
  in
  let m = count 2 "snapshot count" in
  let np = count 3 "path count" in
  (* every valid file has at least m * np bytes: a shorter one fails
     below, and gets no array of the size its header claims; its cells
     are read into one spare slot *)
  let fits = np = 0 || m <= String.length s / np in
  let data = Array.make (if fits then m * np else 1) 0. in
  let parse_row l =
    let got = ref 0 and bad = ref None and more = ref true in
    while !more do
      if !got < np && Option.is_none !bad then begin
        let k = if fits then (l * np) + !got else 0 in
        match Scan.next_float c data k with
        | false -> more := false
        | true ->
            let x = data.(k) in
            if strict && not (Float.is_finite x && x <= 0.) then
              bad := Some (strict_error x (Scan.token c));
            incr got
        | exception Failure _ ->
            bad := Some (Printf.sprintf "bad measurement %S" (Scan.token c));
            incr got
      end
      else if Scan.next_token c then incr got
      else more := false
    done;
    if !got <> np then
      Some (Scan.error c (Printf.sprintf "expected %d columns, got %d" np !got))
    else match !bad with None -> None | Some msg -> Some (Scan.error c msg)
  in
  let rows = ref 0 and first_error = ref None in
  while Scan.next_line c do
    if Option.is_none !first_error && !rows < m then first_error := parse_row !rows;
    incr rows
  done;
  if !rows <> m then
    raise
      (Scan.error ~line:hline c
         (Printf.sprintf "header promises %d snapshot rows, file has %d" m !rows));
  Option.iter raise !first_error;
  Matrix.of_row_major m np data

let save path y =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "measurements" ".tmp" in
  let oc = open_out tmp in
  (try output_string oc (to_string y)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

let load ?strict path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string ~path ?strict s
