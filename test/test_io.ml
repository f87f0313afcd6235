(* Round-trip tests for the text serialization of testbeds and
   measurement campaigns. *)

module Graph = Topology.Graph
module Testbed = Topology.Testbed
module Serial = Topology.Serial
module Trace_io = Netsim.Trace_io
module Matrix = Linalg.Matrix

let tmp_file suffix = Filename.temp_file "netloss_test" suffix

let sample_testbed seed =
  let rng = Nstats.Rng.create seed in
  Topology.Overlay.planetlab_like rng ~hosts:8 ~ases:4 ~routers_per_as:4 ()

let testbed_equal a b =
  Graph.node_count a.Testbed.graph = Graph.node_count b.Testbed.graph
  && Graph.edge_count a.Testbed.graph = Graph.edge_count b.Testbed.graph
  && a.Testbed.beacons = b.Testbed.beacons
  && a.Testbed.destinations = b.Testbed.destinations
  && Array.for_all2
       (fun (x : Graph.node) (y : Graph.node) -> x = y)
       (Graph.nodes a.Testbed.graph)
       (Graph.nodes b.Testbed.graph)
  && Array.for_all2
       (fun (x : Graph.edge) (y : Graph.edge) -> x = y)
       (Graph.edges a.Testbed.graph)
       (Graph.edges b.Testbed.graph)

let test_testbed_roundtrip_string () =
  let tb = sample_testbed 3 in
  let tb' = Serial.of_string (Serial.to_string tb) in
  Alcotest.(check bool) "roundtrip equal" true (testbed_equal tb tb')

let test_testbed_roundtrip_file () =
  let tb = sample_testbed 5 in
  let path = tmp_file ".tb" in
  Serial.save path tb;
  let tb' = Serial.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip equal" true (testbed_equal tb tb')

let test_testbed_comments_and_blanks () =
  let tb = sample_testbed 7 in
  let s = "# a comment\n\n" ^ Serial.to_string tb ^ "\n# trailing\n" in
  let tb' = Serial.of_string s in
  Alcotest.(check bool) "comments ignored" true (testbed_equal tb tb')

let test_testbed_malformed () =
  let check_fails name s =
    match Serial.of_string s with
    | _ -> Alcotest.failf "%s: expected failure" name
    | exception Failure _ -> ()
  in
  check_fails "no header" "node 0 host 0\n";
  check_fails "bad kind" "netloss-testbed 1\nnode 0 alien 0\n";
  check_fails "sparse ids"
    "netloss-testbed 1\nnode 0 host 0\nnode 2 host 0\nbeacon 0\ndest 2\n";
  check_fails "garbage" "netloss-testbed 1\nwhatever\n"

let test_testbed_routing_stable_across_roundtrip () =
  (* the reduced routing matrix must be identical after serialization *)
  let tb = sample_testbed 9 in
  let tb' = Serial.of_string (Serial.to_string tb) in
  let r = (Testbed.routing tb).Topology.Routing.matrix in
  let r' = (Testbed.routing tb').Topology.Routing.matrix in
  Alcotest.(check bool) "same routing matrix" true (Linalg.Sparse.equal r r')

let test_measurements_roundtrip () =
  let y =
    Matrix.init 7 13 (fun l i ->
        -.(1.5 +. sin (float_of_int ((l * 13) + i))) /. 3.)
  in
  let y' = Trace_io.of_string (Trace_io.to_string y) in
  Alcotest.(check bool) "exact roundtrip" true (Matrix.approx_equal ~tol:0. y y')

let test_measurements_file_roundtrip () =
  let y = Matrix.init 3 4 (fun l i -> float_of_int (l - i - 3) *. 0.125) in
  let path = tmp_file ".meas" in
  Trace_io.save path y;
  let y' = Trace_io.load path in
  Sys.remove path;
  Alcotest.(check bool) "file roundtrip" true (Matrix.approx_equal ~tol:0. y y')

let test_measurements_malformed () =
  let check_fails name s =
    match Trace_io.of_string s with
    | _ -> Alcotest.failf "%s: expected failure" name
    | exception Failure _ -> ()
  in
  check_fails "empty" "";
  check_fails "bad header" "nonsense 1 2 3\n0.1 0.2\n";
  check_fails "row count" "netloss-measurements 1 2 2\n-0.1 -0.2\n";
  check_fails "column count" "netloss-measurements 1 1 3\n-0.1 -0.2\n";
  (* value validation: a measurement is a log success rate, so NaN,
     non-finite, and positive entries are corrupt under strict loading *)
  check_fails "nan cell" "netloss-measurements 1 1 2\nnan -0.2\n";
  check_fails "inf cell" "netloss-measurements 1 1 2\n-0.1 -inf\n";
  check_fails "positive cell" "netloss-measurements 1 1 2\n-0.1 0.2\n"

let test_measurements_strict_diagnostics () =
  (* the diagnostic must point at the offending file:line *)
  match
    Trace_io.of_string ~path:"faulty.meas"
      "netloss-measurements 1 2 2\n-0.1 -0.2\nnan -0.4\n"
  with
  | _ -> Alcotest.fail "expected failure on NaN cell"
  | exception Failure msg ->
      Alcotest.(check bool)
        (Printf.sprintf "diagnostic %S names file:line" msg)
        true
        (String.length msg >= 14 && String.sub msg 0 14 = "faulty.meas:3:")

let test_measurements_permissive () =
  (* ~strict:false lets quarantine-aware ingest read fault-laden files *)
  let s = "netloss-measurements 1 1 3\nnan 0.5 -0.25\n" in
  let y = Trace_io.of_string ~strict:false s in
  Alcotest.(check bool) "nan preserved" true (Float.is_nan (Matrix.get y 0 0));
  Alcotest.(check (float 0.)) "positive preserved" 0.5 (Matrix.get y 0 1);
  Alcotest.(check (float 0.)) "valid preserved" (-0.25) (Matrix.get y 0 2);
  match Trace_io.of_string ~strict:false "netloss-measurements 1 1 2\n-0.1\n" with
  | _ -> Alcotest.fail "permissive loading must still reject ragged rows"
  | exception Failure _ -> ()

let test_measurements_preserve_negatives_and_zero () =
  let y = Matrix.of_arrays [| [| -0.5; 0.; -1e-9 |] |] in
  let y' = Trace_io.of_string (Trace_io.to_string y) in
  Alcotest.(check bool) "signs preserved" true (Matrix.approx_equal ~tol:0. y y')

(* --- round trips, bit for bit ---------------------------------------------- *)

module Rng = Nstats.Rng

(* A random double with its sign bit set: every finite non-positive
   value, subnormals and -0. included, is reachable. *)
let rec nonpositive rng =
  let x = Int64.float_of_bits (Int64.logor (Rng.uint64 rng) Int64.min_int) in
  if Float.is_finite x then x else nonpositive rng

let nonpositive_specials =
  [| -0.; 0.; -5e-324; -2.2250738585072014e-308; -1e-300; -1e300; -.Float.max_float |]

(* the format keeps one NaN: the one [float_of_string "nan"] reads *)
let permissive_specials =
  [| float_of_string "nan"; Float.infinity; Float.neg_infinity; 5e-324; 0.5;
     1e300; Float.max_float |]

let random_measurements ~strict seed =
  let rng = Rng.create seed in
  let cell () =
    match Rng.int rng 4 with
    | 0 -> Rng.choose rng nonpositive_specials
    | 1 when not strict -> Rng.choose rng permissive_specials
    | 2 when not strict -> Float.abs (nonpositive rng)
    | _ -> nonpositive rng
  in
  Matrix.init (Rng.int rng 7) (1 + Rng.int rng 9) (fun _ _ -> cell ())

let roundtrip_measurements ~strict seed =
  let y = random_measurements ~strict seed in
  Generators.matrix_bits_equal y
    (Trace_io.of_string ~strict (Trace_io.to_string y))

let prop_measurement_roundtrip =
  QCheck.Test.make ~count:200 ~name:"measurement roundtrip is exact"
    Generators.seed_arb (roundtrip_measurements ~strict:true)

let prop_measurement_roundtrip_permissive =
  QCheck.Test.make ~count:200
    ~name:"measurement roundtrip is exact with nan, inf and positive cells"
    Generators.seed_arb (roundtrip_measurements ~strict:false)

let prop_testbed_roundtrip =
  QCheck.Test.make ~count:20 ~name:"testbed roundtrip on every generator family"
    QCheck.(int_range 0 600)
    (fun seed ->
      List.for_all
        (fun family ->
          let tb = Generators.random_testbed ((8 * seed) + family) in
          testbed_equal tb (Serial.of_string (Serial.to_string tb)))
        (List.init 8 Fun.id))

(* --- the byte scanner against the line-and-token-list parsers ------------- *)

(* One or two of these edits of a valid document: truncation, a byte
   flipped to a separator, comment or digit-like byte, CRLF line ends, a
   duplicated line, an inserted blank or comment line, a token replaced
   by a 20-digit integer or by a token the integer and float readers
   treat specially. *)
let mutate rng doc =
  let lines = Array.of_list (String.split_on_char '\n' doc) in
  let nl = Array.length lines in
  let with_line i l =
    String.concat "\n"
      (Array.to_list
         (Array.concat [ Array.sub lines 0 i; l; Array.sub lines i (nl - i) ]))
  in
  let replace_token w =
    let i = Rng.int rng nl in
    let toks = Array.of_list (String.split_on_char ' ' lines.(i)) in
    toks.(Rng.int rng (Array.length toks)) <- w;
    lines.(i) <- String.concat " " (Array.to_list toks);
    String.concat "\n" (Array.to_list lines)
  in
  match Rng.int rng 7 with
  | 0 -> String.sub doc 0 (Rng.int rng (String.length doc + 1))
  | 1 when doc <> "" ->
      let b = Bytes.of_string doc in
      Bytes.set b (Rng.int rng (Bytes.length b))
        (Rng.choose rng [| ' '; '\t'; '\r'; '\n'; '#'; '-'; '_'; 'x'; '0' |]);
      Bytes.to_string b
  | 2 -> String.concat "\r\n" (Array.to_list lines)
  | 3 ->
      let i = Rng.int rng nl in
      with_line i [| lines.(i) |]
  | 4 ->
      with_line (Rng.int rng (nl + 1))
        [| Rng.choose rng [| ""; "   "; "\t"; "\r"; "# comment"; "  # 1 2" |] |]
  | 5 ->
      (* 20 digits overflow a 63-bit int *)
      replace_token
        (String.init 20 (fun k -> if k = 0 then '1' else Char.chr (48 + Rng.int rng 10)))
  | _ -> replace_token (Rng.choose rng [| "nan"; "inf"; "-0"; "1_000"; "0x10" |])

let mutated rng doc =
  let doc = mutate rng doc in
  if Rng.bool rng 0.3 then mutate rng doc else doc

(* same value (floats bit for bit), or the same exception and message *)
let same_outcome equal f g =
  match (f (), g ()) with
  | Ok a, Ok b -> equal a b
  | Error a, Error b -> a = b
  | _ -> false

let outcome f () = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* the oracle locates lines as [Serial.of_string] now does *)
let oracle_serial = Oracle.Serial.parse ~where:(Printf.sprintf "<string>:%d")

let prop_trace_io_differential =
  QCheck.Test.make ~count:400
    ~name:"Trace_io.of_string = line-list oracle on mutated files"
    Generators.seed_arb
    (fun seed ->
      let rng = Rng.create (seed + 17) in
      let y = random_measurements ~strict:(Rng.bool rng 0.5) seed in
      let doc = mutated rng (Trace_io.to_string y) in
      List.for_all
        (fun strict ->
          same_outcome Generators.matrix_bits_equal
            (outcome (fun () -> Trace_io.of_string ~path:"f.meas" ~strict doc))
            (outcome (fun () -> Oracle.Trace_io.of_string ~path:"f.meas" ~strict doc)))
        [ true; false ])

let prop_serial_differential =
  QCheck.Test.make ~count:300
    ~name:"Serial.of_string = line-list oracle on mutated files"
    Generators.seed_arb
    (fun seed ->
      let rng = Rng.create (seed + 29) in
      let doc = mutated rng (Serial.to_string (Generators.random_testbed seed)) in
      same_outcome testbed_equal
        (outcome (fun () -> Serial.of_string doc))
        (outcome (fun () -> oracle_serial doc)))

let test_scanner_edge_cases () =
  (* inputs the mutations reach only by chance *)
  let meas =
    [ ""; "\n\n"; "netloss-measurements 1 0 0"; "netloss-measurements 1 0 0\n-1";
      "netloss-measurements 1 x -1\n"; "netloss-measurements 1 1 0\n-0.1\n";
      "netloss-measurements 1 99999999999 99999999999\n-0.1\n";
      "netloss-measurements 1 2 99999999999\n-0.1\n-0.2\n";
      "netloss-measurements 1 1 2\n-0.1\t-0.2\n";
      "netloss-measurements  1 1 1 \r\n -1e-400 \r\n";
      "netloss-measurements 1 1 1\n0x1p-3\n"; "netloss-measurements 1 1 2 # c\n-1 -2\n" ]
  in
  List.iter
    (fun doc ->
      List.iter
        (fun strict ->
          Alcotest.(check bool)
            (Printf.sprintf "measurements %S" doc)
            true
            (same_outcome Generators.matrix_bits_equal
               (outcome (fun () -> Trace_io.of_string ~strict doc))
               (outcome (fun () -> Oracle.Trace_io.of_string ~strict doc))))
        [ true; false ])
    meas;
  let tb =
    "netloss-testbed 1\nnode 0 host 0\nnode 1 host 0\nedge 0 1\nedge 1 0\nbeacon 0\ndest 1\n"
  in
  List.iter
    (fun doc ->
      Alcotest.(check bool)
        (Printf.sprintf "testbed %S" doc)
        true
        (same_outcome testbed_equal
           (outcome (fun () -> Serial.of_string doc))
           (outcome (fun () -> oracle_serial doc))))
    [ tb; "netloss-testbed 1"; "netloss-testbed  1 \nnode 0\thost 0\n";
      tb ^ "node 0 host 00\n";
      tb ^ "edge 0 +1\n"; tb ^ "edge 0 4611686018427387904\n"; tb ^ "edge 0 0x1\n";
      tb ^ "beacon 000000000000000000001\n"; tb ^ "node 2 router -0\nedge 2 0\n";
      tb ^ "netloss-testbed 2\n"; tb ^ "edge 0 1 \r"; "# x\r\n" ^ tb ]

(* --- the decimal reader against float_of_string ----------------------------- *)

module Scan = Topology.Scan

(* [w] read as the second cell of a line, by the scanner and by a
   one-row document, against [float_of_string]: the same double bit for
   bit, or the same exception. The scanner must also leave its cursor on
   the whole token, and find nothing after it. *)
let reads_like_float_of_string w =
  let same a b = same_outcome Generators.bits_equal (fun () -> a) (fun () -> b) in
  let want = outcome (fun () -> float_of_string w) () in
  let a = [| 0.; 0. |] in
  let c = Scan.create ~path:"t" ("-1 " ^ w) in
  let scanned =
    outcome
      (fun () ->
        if not (Scan.next_line c && Scan.next_float c a 0 && Scan.next_float c a 1)
        then failwith "no token";
        a.(1))
      ()
  in
  let doc = "netloss-measurements 1 1 2\n-1 " ^ w ^ "\n" in
  let loaded =
    outcome (fun () -> Matrix.get (Trace_io.of_string ~strict:false doc) 0 1) ()
  in
  let loaded_want =
    match want with
    | Ok x -> Ok x
    | Error _ ->
        Error
          (Printexc.to_string
             (Failure (Printf.sprintf "<string>:2: bad measurement %S" w)))
  in
  same scanned want
  && Scan.token c = w
  && (not (Scan.next_float c a 0))
  && same loaded loaded_want

(* The exact decimal value of the midpoint between [x >= 0] and the next
   double, as [%.40g] prints it: exact when it has at most 40
   significant digits, else rounded to 40. [%.1100f] prints a double's
   exact expansion (at most 1 074 fractional digits), so the midpoint is
   the sum of two such expansions, halved. *)
let midpoint_token x =
  let exact f = String.concat "" (String.split_on_char '.' (Printf.sprintf "%.1100f" f)) in
  let a = exact x and b = exact (Float.succ x) in
  let n = max (String.length a) (String.length b) in
  let pad s = String.make (n - String.length s) '0' ^ s in
  let a = pad a and b = pad b in
  (* digit i of [half] weighs 10^(point - i): [sum.(0)] is the carry,
     [sum.(n + 1)] room for the halving's last digit *)
  let point = n - 1100 in
  let sum = Array.make (n + 2) 0 and carry = ref 0 in
  for i = n - 1 downto 0 do
    let d = Char.code a.[i] + Char.code b.[i] - (2 * Char.code '0') + !carry in
    sum.(i + 1) <- d mod 10;
    carry := d / 10
  done;
  sum.(0) <- !carry;
  let half = Array.make (n + 2) 0 and r = ref 0 in
  Array.iteri
    (fun i d ->
      let v = (10 * !r) + d in
      half.(i) <- v / 2;
      r := v mod 2)
    sum;
  let first = ref 0 in
  while half.(!first) = 0 do incr first done;
  let last = ref (n + 1) in
  while half.(!last) = 0 do decr last done;
  let digits = Array.sub half !first (min 41 (!last - !first + 1)) in
  let exp10 = ref (point - !first) in
  let digits =
    if Array.length digits <= 40 then digits
    else begin
      let d = Array.sub digits 0 40 in
      if digits.(40) >= 5 then begin
        let k = ref 39 in
        while !k >= 0 && d.(!k) = 9 do
          d.(!k) <- 0;
          decr k
        done;
        if !k >= 0 then d.(!k) <- d.(!k) + 1
        else begin
          d.(0) <- 1;
          incr exp10
        end
      end;
      d
    end
  in
  let s = String.concat "" (Array.to_list (Array.map string_of_int digits)) in
  Printf.sprintf "%c.%se%d" s.[0]
    (if String.length s > 1 then String.sub s 1 (String.length s - 1) else "0")
    !exp10

let fallback_tokens =
  [| "nan"; "-inf"; "0x1p-3"; "1_000"; "+1"; ".5"; "5."; "1e"; "1e+"; "--1"; "1..2";
     "\t1"; "1e99999" |]

let special_tokens =
  [| "0"; "-0"; "0.0"; "-0.0"; "-0e7"; "0e-400"; "4.9406564584124654e-324";
     "2.4703282292062327e-324"; "2.2250738585072009e-308"; "2.2250738585072014e-308";
     "1.7976931348623157e308"; "-1.7976931348623157e308"; "1.7976931348623158e308";
     "1.7976931348623159e308"; "9007199254740993"; "123456789012345678";
     "1234567890123456789" |]

let random_digits rng n =
  String.init n (fun k -> Char.chr (Char.code (if k = 0 then '1' else '0') + Rng.int rng (if k = 0 then 9 else 10)))

(* One token of each kind: a random double in eleven printf formats, a
   log success rate, a midpoint between adjacent doubles (anywhere, and
   in [2^51, 2^60), where its exact value has at most 19 digits), a
   random 1-20-digit mantissa with an exponent in [-360, 330] (with and
   without a point), the table's edges and Clinger's (and one step
   outside), a subnormal, and the fixed special and fallback tokens. *)
let reader_tokens seed =
  let rng = Rng.create seed in
  let x = Int64.float_of_bits (Rng.uint64 rng) in
  let formats =
    List.map
      (fun f -> Printf.sprintf f x)
      [ "%.17g"; "%.16g"; "%.15g"; "%g"; "%.3g"; "%.18g"; "%.19g"; "%.20g"; "%.17e"; "%f" ]
  in
  let log_rate = Printf.sprintf "%.17g" (log (float_of_int (1 + Rng.int rng 1000) /. 1000.)) in
  let rec finite () =
    let y = Float.abs (Int64.float_of_bits (Rng.uint64 rng)) in
    if Float.is_finite (Float.succ y) then y else finite ()
  in
  let sign () = if Rng.bool rng 0.5 then "-" else "" in
  let near_int = Float.ldexp (1. +. Rng.float rng) (51 + Rng.int rng 9) in
  let nd = 1 + Rng.int rng 20 in
  let man = random_digits rng nd in
  let e = Rng.int rng 691 - 360 in
  let cut = Rng.int rng (nd + 1) in
  let pointed =
    if cut = 0 || cut = nd then man
    else String.sub man 0 cut ^ "." ^ String.sub man cut (nd - cut)
  in
  let edge =
    Rng.choose rng [| -349; -348; -347; -23; -22; 22; 23; 346; 347; 348 |]
  in
  let subnormal =
    Int64.float_of_bits (Int64.shift_right_logical (Rng.uint64 rng) 12)
  in
  formats
  @ [ log_rate;
      sign () ^ midpoint_token (finite ());
      sign () ^ midpoint_token near_int;
      Printf.sprintf "%s%se%d" (sign ()) man e;
      Printf.sprintf "%s%sE%+d" (sign ()) pointed e;
      Printf.sprintf "%s%se%d" (sign ()) (random_digits rng (1 + Rng.int rng 18)) edge;
      Printf.sprintf "%.17g" subnormal;
      Rng.choose rng special_tokens;
      Rng.choose rng fallback_tokens ]

let prop_reader_is_float_of_string =
  QCheck.Test.make ~count:600
    ~name:"decimal reader = float_of_string, bit for bit, on every kind of token"
    Generators.seed_arb
    (fun seed -> List.for_all reads_like_float_of_string (reader_tokens seed))

(* The writer prints a cell through the primitive Printf calls for
   "%.17g": its bytes must be Printf's, on the doubles the reader
   property's tokens denote and on every special value (nan, +-inf, -0.,
   subnormals). *)
let prop_writer_is_printf =
  QCheck.Test.make ~count:600
    ~name:"measurement writer = Printf \"%.17g\", byte for byte, on every kind of double"
    Generators.seed_arb
    (fun seed ->
      let cells =
        Array.concat
          [ Array.of_list (List.filter_map float_of_string_opt (reader_tokens seed));
            nonpositive_specials; permissive_specials ]
      in
      let expected =
        Printf.sprintf "netloss-measurements 1 1 %d\n%s\n" (Array.length cells)
          (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.17g") cells)))
      in
      Trace_io.to_string (Matrix.of_arrays [| cells |]) = expected)

let test_reader_fixed_tokens () =
  Array.iter
    (fun w ->
      Alcotest.(check bool) (Printf.sprintf "token %S" w) true (reads_like_float_of_string w))
    (Array.append special_tokens fallback_tokens)

(* Five entries of the reader's power-of-ten table, recomputed by long
   division one bit at a time on little-endian bit arrays: 5^e's leading
   128 bits for e >= 0, the first 128 bits of the binary expansion of
   1 / 5^n for e = -n. *)
let test_pow10_table () =
  let len = 1200 in
  let top a =
    let t = ref (len - 1) in
    while a.(!t) = 0 do decr t done;
    !t
  in
  let geq a b =
    let i = ref (len - 1) in
    while !i >= 0 && a.(!i) = b.(!i) do decr i done;
    !i < 0 || a.(!i) > b.(!i)
  in
  let sub a b =
    let borrow = ref 0 in
    for i = 0 to len - 1 do
      let d = a.(i) - b.(i) - !borrow in
      a.(i) <- d land 1;
      borrow := if d < 0 then 1 else 0
    done
  in
  let add a b =
    let carry = ref 0 in
    for i = 0 to len - 1 do
      let s = a.(i) + b.(i) + !carry in
      a.(i) <- s land 1;
      carry := s lsr 1
    done
  in
  let pow5 n =
    let a = Array.make len 0 in
    a.(0) <- 1;
    for _ = 1 to n do
      let four = Array.init len (fun i -> if i >= 2 then a.(i - 2) else 0) in
      add a four
    done;
    a
  in
  let word bits = List.fold_left (fun w b -> Int64.logor (Int64.shift_left w 1) (Int64.of_int b)) 0L bits in
  let words bits = (word (List.filteri (fun i _ -> i < 64) bits), word (List.filteri (fun i _ -> i >= 64) bits)) in
  let expected e =
    if e >= 0 then begin
      let a = pow5 e in
      let t = top a in
      words (List.init 128 (fun k -> if t - k >= 0 then a.(t - k) else 0))
    end
    else begin
      let d = pow5 (-e) and r = Array.make len 0 in
      r.(0) <- 1;
      (* quotient bits of 1 / d, from the first 1 on *)
      let bits = ref [] and started = ref false in
      while List.length !bits < 128 do
        (* r <- 2r *)
        for i = len - 1 downto 1 do r.(i) <- r.(i - 1) done;
        r.(0) <- 0;
        let bit = if geq r d then (sub r d; 1) else 0 in
        if bit = 1 then started := true;
        if !started then bits := bit :: !bits
      done;
      words (List.rev !bits)
    end
  in
  List.iter
    (fun e ->
      let hi, lo = expected e in
      let hi', lo' = Scan.pow10 e in
      Alcotest.(check (pair int64 int64)) (Printf.sprintf "10^%d" e) (hi, lo) (hi', lo'))
    [ -348; -123; -1; 28; 347 ];
  Alcotest.(check (pair int64 int64)) "10^0" (Int64.min_int, 0L) (Scan.pow10 0);
  Alcotest.(check (pair int64 int64)) "10^1" (0xA000_0000_0000_0000L, 0L) (Scan.pow10 1);
  Alcotest.(check (pair int64 int64)) "10^-1"
    (0xCCCC_CCCC_CCCC_CCCCL, 0xCCCC_CCCC_CCCC_CCCCL) (Scan.pow10 (-1))

(* A plain decimal cell, and a row of them, allocate nothing: a 51-row
   document of [%.17g] cells takes as many minor words as a 1-row one
   (the cursor, the header's fields and the matrix record). *)
let test_reader_allocates_nothing_per_cell () =
  let doc rows =
    Trace_io.to_string
      (Matrix.init rows 400 (fun l i -> log (float_of_int (1 + ((l * 400) + i) mod 997) /. 1000.)))
  in
  let words d =
    ignore (Trace_io.of_string d);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Trace_io.of_string d));
    Gc.minor_words () -. w0
  in
  let one = words (doc 1) and many = words (doc 51) in
  Alcotest.(check (float 0.)) "minor words for 50 more rows of 400 cells" 0. (many -. one)

let () =
  Alcotest.run "io"
    [
      ( "testbed",
        [
          Alcotest.test_case "string roundtrip" `Quick test_testbed_roundtrip_string;
          Alcotest.test_case "file roundtrip" `Quick test_testbed_roundtrip_file;
          Alcotest.test_case "comments and blanks" `Quick
            test_testbed_comments_and_blanks;
          Alcotest.test_case "malformed" `Quick test_testbed_malformed;
          Alcotest.test_case "routing stable" `Quick
            test_testbed_routing_stable_across_roundtrip;
        ] );
      ( "measurements",
        [
          Alcotest.test_case "string roundtrip" `Quick test_measurements_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_measurements_file_roundtrip;
          Alcotest.test_case "malformed" `Quick test_measurements_malformed;
          Alcotest.test_case "strict diagnostics" `Quick
            test_measurements_strict_diagnostics;
          Alcotest.test_case "permissive loading" `Quick
            test_measurements_permissive;
          Alcotest.test_case "negatives and zero" `Quick
            test_measurements_preserve_negatives_and_zero;
        ] );
      ( "scanner",
        [
          Alcotest.test_case "edge cases = oracle" `Quick test_scanner_edge_cases;
          Alcotest.test_case "fixed tokens = float_of_string" `Quick
            test_reader_fixed_tokens;
          Alcotest.test_case "power-of-ten table = long division" `Quick
            test_pow10_table;
          Alcotest.test_case "no allocation per cell" `Quick
            test_reader_allocates_nothing_per_cell;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_measurement_roundtrip;
            prop_measurement_roundtrip_permissive;
            prop_testbed_roundtrip;
            prop_trace_io_differential;
            prop_serial_differential;
            prop_reader_is_float_of_string;
            prop_writer_is_printf;
          ] );
    ]
