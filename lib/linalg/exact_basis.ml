(* Every residue is in [0, p), so a product plus a residue stays below
   2^62 and fits in a 63-bit int. *)
let p = 0x7fff_ffff

(* Vector k is 1 at pivot.(k) and every later vector is 0 there, so
   reducing by the vectors oldest first never brings back an entry at a
   pivot already cleared. *)
type t = {
  pivot : int array;
  support : int array array;
  coef : int array array;  (* entries mod p, one per support position *)
  mutable size : int;
  (* Scratch, clear between calls: the candidate's entries mod p and the
     positions they have occupied, first touch first. *)
  acc : int array;
  seen : Bytes.t;
  touched : int array;
  mutable n_touched : int;
}

let create ~dim =
  if dim < 0 then invalid_arg "Exact_basis.create: negative dimension";
  {
    pivot = Array.make dim 0;
    support = Array.make dim [||];
    coef = Array.make dim [||];
    size = 0;
    acc = Array.make dim 0;
    seen = Bytes.make dim '\000';
    touched = Array.make dim 0;
    n_touched = 0;
  }

let size b = b.size

let rec power a e =
  if e = 0 then 1
  else
    let h = power (a * a mod p) (e / 2) in
    if e land 1 = 1 then a * h mod p else h

let add_to b j x =
  b.acc.(j) <- (b.acc.(j) + x) mod p;
  if Bytes.get b.seen j = '\000' then begin
    Bytes.set b.seen j '\001';
    b.touched.(b.n_touched) <- j;
    b.n_touched <- b.n_touched + 1
  end

(* Loads the candidate, reduces it by every vector whose pivot it holds,
   and returns its nonzero positions, first touch first. *)
let reduce b s =
  Array.iteri
    (fun k i ->
      if i < 0 || i >= Array.length b.acc || (k > 0 && s.(k - 1) >= i) then
        invalid_arg "Exact_basis: support not strictly increasing or out of range")
    s;
  Array.iter (fun i -> add_to b i 1) s;
  for k = 0 to b.size - 1 do
    let c = b.acc.(b.pivot.(k)) in
    if c <> 0 then
      Array.iteri (fun t j -> add_to b j ((p - c) * b.coef.(k).(t))) b.support.(k)
  done;
  List.filter (fun j -> b.acc.(j) <> 0)
    (List.init b.n_touched (Array.get b.touched))

let clear b =
  for t = 0 to b.n_touched - 1 do
    b.acc.(b.touched.(t)) <- 0;
    Bytes.set b.seen b.touched.(t) '\000'
  done;
  b.n_touched <- 0

let in_span b s =
  let residual = reduce b s in
  clear b;
  residual = []

let try_add b s =
  let residual = reduce b s in
  (match residual with
  | [] -> ()
  | first :: _ ->
      (* Fermat: a^(p-2) inverts a nonzero residue *)
      let scale = power b.acc.(first) (p - 2) in
      let k = b.size in
      b.pivot.(k) <- first;
      b.support.(k) <- Array.of_list residual;
      b.coef.(k) <- Array.of_list (List.map (fun j -> b.acc.(j) * scale mod p) residual);
      b.size <- k + 1);
  clear b;
  residual <> []
