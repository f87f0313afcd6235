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

let float_token c = float_of_string (token c)

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

let error ?line c msg =
  let line = Option.value line ~default:c.line in
  Failure (Printf.sprintf "%s:%d: %s" c.path line msg)
