let max_fields = 4

type t = {
  path : string;
  s : string;
  mutable next : int; (* start of the line after the current one *)
  mutable line : int;
  mutable lo : int; (* the current line, trimmed, is s.[lo .. hi - 1] *)
  mutable hi : int;
  mutable tok_lo : int; (* the token under the cursor is s.[tok_lo .. tok_hi - 1] *)
  mutable tok_hi : int;
  starts : int array; (* the first [max_fields] tokens of the line *)
  stops : int array;
}

let create ~path s =
  { path; s; next = 0; line = 0; lo = 0; hi = 0; tok_lo = 0; tok_hi = 0;
    starts = Array.make max_fields 0; stops = Array.make max_fields 0 }

(* [String.trim]'s set, less the '\n' that ends a line *)
let is_space = function ' ' | '\t' | '\r' | '\012' -> true | _ -> false

let rec next_line c =
  let s = c.s and len = String.length c.s in
  if c.next > len then false
  else begin
    let stop = ref c.next in
    while !stop < len && String.unsafe_get s !stop <> '\n' do incr stop done;
    let lo = ref c.next and hi = ref !stop in
    c.next <- !stop + 1;
    c.line <- c.line + 1;
    while !lo < !hi && is_space (String.unsafe_get s !lo) do incr lo done;
    while !hi > !lo && is_space (String.unsafe_get s (!hi - 1)) do decr hi done;
    if !lo = !hi || String.unsafe_get s !lo = '#' then next_line c
    else begin
      c.lo <- !lo;
      c.hi <- !hi;
      c.tok_hi <- !lo;
      true
    end
  end

let line c = c.line

let line_text c = String.sub c.s c.lo (c.hi - c.lo)

let next_token c =
  let s = c.s and hi = c.hi in
  let i = ref c.tok_hi in
  while !i < hi && String.unsafe_get s !i = ' ' do incr i done;
  if !i >= hi then false
  else begin
    let j = ref !i in
    while !j < hi && String.unsafe_get s !j <> ' ' do incr j done;
    c.tok_lo <- !i;
    c.tok_hi <- !j;
    true
  end

let token c = String.sub c.s c.tok_lo (c.tok_hi - c.tok_lo)

let fields c =
  c.tok_hi <- c.lo;
  let n = ref 0 in
  while next_token c do
    if !n < max_fields then begin
      c.starts.(!n) <- c.tok_lo;
      c.stops.(!n) <- c.tok_hi
    end;
    incr n
  done;
  !n

let field c i = String.sub c.s c.starts.(i) (c.stops.(i) - c.starts.(i))

let field_is c i w =
  let lo = c.starts.(i) and n = String.length w in
  c.stops.(i) - lo = n
  && begin
       let k = ref 0 in
       while !k < n && String.unsafe_get c.s (lo + !k) = String.unsafe_get w !k do
         incr k
       done;
       !k = n
     end

let is_digit ch = ch >= '0' && ch <= '9'

let int_field c i =
  let s = c.s and lo = c.starts.(i) and hi = c.stops.(i) in
  let k = ref lo in
  while !k < hi && is_digit (String.unsafe_get s !k) do incr k done;
  (* a plain decimal of at most 18 digits fits in a 63-bit int *)
  if !k = hi && hi - lo <= 18 then begin
    let n = ref 0 in
    for j = lo to hi - 1 do
      n := (10 * !n) + Char.code (String.unsafe_get s j) - Char.code '0'
    done;
    !n
  end
  else int_of_string (field c i)

(* --- floats ------------------------------------------------------------------

   A decimal token [-]D+[.D+][(e|E)[+|-]D{1,5}] with at most 18
   significant digits is read exactly, in place; any other token, and
   any value the two exact paths below leave undecided, goes to
   [float_of_string]. Both paths give the correctly rounded double, as
   [float_of_string] (strtod) does. *)

let max_digits = 18 (* 10^18 < 2^62: the decimal mantissa fits an int *)

(* 10^0 .. 10^22, every one exact in a double *)
let exact_pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12;
     1e13; 1e14; 1e15; 1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let pow10_min = -348

let pow10_max = 347

(* bits in [x], 0 <= x < 2^62 *)
let bit_length x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin n := 32; x := !x lsr 32 end;
  if !x lsr 16 <> 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x lsr 8 <> 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x lsr 4 <> 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x lsr 2 <> 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x lsr 1 <> 0 then begin n := !n + 1; x := !x lsr 1 end;
  !n + !x

(* The 128-bit mantissas of 10^e for e in [pow10_min, pow10_max],
   truncated, with the top bit of the high word set: slot [2 (e -
   pow10_min)] holds the high word, the next slot the low one. A power
   of two only moves the exponent, so 10^e has the mantissa of 5^e, and
   10^-n that of 1 / 5^n. Both come from exact big integers (32-bit
   limbs, least significant first): 2^128 5^e by repeated multiplication
   by 5, and floor (2^1024 / 5^n) by repeated floor division by 5, which
   is exact because floor (floor (x / a) / b) = floor (x / ab). *)
let pow10_table =
  let open Bigarray in
  let t = Array1.create int64 c_layout (2 * (pow10_max - pow10_min + 1)) in
  let limbs = 40 and mask = 0xFFFF_FFFF in
  let d = Array.make limbs 0 in
  (* the top 128 bits of [d], which has more than 128 *)
  let store e =
    let top = ref (limbs - 1) in
    while d.(!top) = 0 do decr top done;
    let len = (32 * !top) + bit_length d.(!top) in
    (* the 32 bits from bit [p] up *)
    let chunk p =
      let q = p / 32 and r = p mod 32 in
      let above = if r = 0 || q + 1 = limbs then 0 else d.(q + 1) lsl (32 - r) in
      ((d.(q) lsr r) lor above) land mask
    in
    let word p =
      Int64.logor
        (Int64.shift_left (Int64.of_int (chunk (p + 32))) 32)
        (Int64.of_int (chunk p))
    in
    let k = 2 * (e - pow10_min) in
    Array1.set t k (word (len - 64));
    Array1.set t (k + 1) (word (len - 128))
  in
  d.(4) <- 1;
  for e = 0 to pow10_max do
    store e;
    let carry = ref 0 in
    for i = 0 to limbs - 1 do
      let x = (5 * d.(i)) + !carry in
      d.(i) <- x land mask;
      carry := x lsr 32
    done
  done;
  Array.fill d 0 limbs 0;
  d.(32) <- 1;
  for n = 1 to -pow10_min do
    let rem = ref 0 in
    for i = limbs - 1 downto 0 do
      let x = (!rem lsl 32) lor d.(i) in
      d.(i) <- x / 5;
      rem := x mod 5
    done;
    store (-n)
  done;
  t

let pow10 e =
  if e < pow10_min || e > pow10_max then invalid_arg "Scan.pow10";
  let k = 2 * (e - pow10_min) in
  (Bigarray.Array1.get pow10_table k, Bigarray.Array1.get pow10_table (k + 1))

(* unsigned 64-bit [a < b] *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.add a Int64.min_int < Int64.add b Int64.min_int

(* the high word of the unsigned 128-bit product [a b], from 32-bit halves *)
let[@inline] mul_hi (a : int64) (b : int64) =
  let m = 0xFFFF_FFFFL in
  let a0 = Int64.logand a m and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b m and b1 = Int64.shift_right_logical b 32 in
  let t = Int64.add (Int64.mul a1 b0) (Int64.shift_right_logical (Int64.mul a0 b0) 32) in
  let u = Int64.add (Int64.logand t m) (Int64.mul a0 b1) in
  Int64.add
    (Int64.add (Int64.mul a1 b1) (Int64.shift_right_logical t 32))
    (Int64.shift_right_logical u 32)

(* Eisel-Lemire, as Go's [strconv.eiselLemire64]: [a.(k)] gets
   (-1)^neg man 10^exp10, for 0 < man < 10^18 and exp10 in the table's
   range, when one 64x128-bit product decides its rounding; [false]
   (and [a] untouched) for the halfway and wide-error cases it leaves
   open and for results that are subnormal or overflow. *)
let eisel_lemire (a : float array) k man exp10 neg =
  let clz = 64 - bit_length man in
  let w = Int64.shift_left (Int64.of_int man) clz in
  let i = 2 * (exp10 - pow10_min) in
  let p_hi = Bigarray.Array1.unsafe_get pow10_table i in
  let x_hi = mul_hi w p_hi and x_lo = Int64.mul w p_hi in
  (* the truncated low word can carry into the high one *)
  let wide = Int64.logand x_hi 0x1FFL = 0x1FFL && ult (Int64.add x_lo w) w in
  let p_lo = Bigarray.Array1.unsafe_get pow10_table (i + 1) in
  let y_hi = if wide then mul_hi w p_lo else 0L in
  let y_lo = if wide then Int64.mul w p_lo else 0L in
  let lo = Int64.add x_lo y_hi in
  let hi = if ult lo x_lo then Int64.add x_hi 1L else x_hi in
  if
    wide
    && Int64.logand hi 0x1FFL = 0x1FFL
    && lo = -1L
    && ult (Int64.add y_lo w) w
  then false
  else begin
    let msb = Int64.to_int (Int64.shift_right_logical hi 63) in
    let mant = ref (Int64.to_int (Int64.shift_right_logical hi (msb + 9))) in
    let exp2 = ref ((((217706 * exp10) asr 16) + 64 + 1023 - clz) - (1 lxor msb)) in
    if lo = 0L && Int64.logand hi 0x1FFL = 0L && !mant land 3 = 1 then false
    else begin
      mant := (!mant + (!mant land 1)) lsr 1;
      if !mant lsr 53 > 0 then begin
        mant := !mant lsr 1;
        incr exp2
      end;
      if !exp2 <= 0 || !exp2 >= 0x7FF then false
      else begin
        let bits =
          Int64.logor
            (Int64.shift_left (Int64.of_int !exp2) 52)
            (Int64.of_int (!mant land 0xF_FFFF_FFFF_FFFF))
        in
        a.(k) <- Int64.float_of_bits (if neg then Int64.logor bits Int64.min_int else bits);
        true
      end
    end
  end

(* [a.(k)] gets (-1)^neg man 10^exp10, for 0 <= man < 10^18, or [false] *)
let convert (a : float array) k man exp10 neg =
  if man = 0 then begin
    a.(k) <- (if neg then -0. else 0.);
    true
  end
  else if man < 1 lsl 53 && exp10 >= -22 && exp10 <= 22 then begin
    (* Clinger: both operands are exact, so one rounding *)
    let x = float_of_int man in
    let x = if exp10 >= 0 then x *. exact_pow10.(exp10) else x /. exact_pow10.(-exp10) in
    a.(k) <- (if neg then -.x else x);
    true
  end
  else if exp10 < pow10_min || exp10 > pow10_max then false
  else eisel_lemire a k man exp10 neg

let next_float c (a : float array) k =
  let s = c.s and hi = c.hi in
  let p = ref c.tok_hi in
  while !p < hi && String.unsafe_get s !p = ' ' do incr p done;
  if !p >= hi then false
  else begin
    let lo = !p in
    let neg = String.unsafe_get s lo = '-' in
    if neg then incr p;
    (* the mantissa's significant digits (leading zeros do not count),
       and the power of ten that the fraction's digits take off *)
    let man = ref 0 and digits = ref 0 and exp10 = ref 0 in
    let start = !p in
    while !p < hi && is_digit (String.unsafe_get s !p) do
      man := (10 * !man) + Char.code (String.unsafe_get s !p) - Char.code '0';
      if !digits > 0 || !man > 0 then incr digits;
      incr p
    done;
    (* a digit before the point, and one after it if there is a point *)
    let ok = ref (!p > start) in
    if !p < hi && String.unsafe_get s !p = '.' then begin
      incr p;
      let start = !p in
      while !p < hi && is_digit (String.unsafe_get s !p) do
        man := (10 * !man) + Char.code (String.unsafe_get s !p) - Char.code '0';
        if !digits > 0 || !man > 0 then incr digits;
        incr p
      done;
      exp10 := start - !p;
      if !p = start then ok := false
    end;
    if !p < hi && (String.unsafe_get s !p = 'e' || String.unsafe_get s !p = 'E') then begin
      incr p;
      let eneg = !p < hi && String.unsafe_get s !p = '-' in
      if eneg || (!p < hi && String.unsafe_get s !p = '+') then incr p;
      let start = !p and e = ref 0 in
      while !p < hi && is_digit (String.unsafe_get s !p) do
        e := (10 * !e) + Char.code (String.unsafe_get s !p) - Char.code '0';
        incr p
      done;
      if !p = start || !p - start > 5 then ok := false
      else exp10 := if eneg then !exp10 - !e else !exp10 + !e
    end;
    (* any other byte before the separator leaves the fast path *)
    if !p < hi && String.unsafe_get s !p <> ' ' then begin
      ok := false;
      while !p < hi && String.unsafe_get s !p <> ' ' do incr p done
    end;
    c.tok_lo <- lo;
    c.tok_hi <- !p;
    if not (!ok && !digits <= max_digits && convert a k !man !exp10 neg) then
      a.(k) <- float_of_string (String.sub s lo (!p - lo));
    true
  end

let error ?line c msg =
  let line = Option.value line ~default:c.line in
  Failure (Printf.sprintf "%s:%d: %s" c.path line msg)
