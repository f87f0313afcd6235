(* Order statistics and a minimal JSON writer for the ledger's outputs. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function [] -> nan | xs -> Nstats.Descriptive.median (Array.of_list xs)

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] ("exclusive"
   method), so spreads printed here match the ones an acceptance script
   computes from the same values. A single value is its own quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* Nearest-rank percentile. *)
let percentile xs p =
  match sorted xs with
  | [||] -> nan
  | a ->
      let n = Array.length a in
      let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (k - 1)))

(* --- JSON output: nested values over [Obs.Field]'s scalars ------------- *)

type json =
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Arr of json list
  | Obj of (string * json) list

let rec write b = function
  | Int n -> Buffer.add_string b (string_of_int n)
  | Num x -> Buffer.add_string b (Obs.Field.json_float x)
  | Str s -> Buffer.add_string b (Obs.Field.json_string s)
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Arr l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Obj l ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (Obs.Field.json_string k);
          Buffer.add_string b ": ";
          write b v)
        l;
      Buffer.add_char b '}'

let to_string j =
  let b = Buffer.create 4096 in
  write b j;
  Buffer.contents b
