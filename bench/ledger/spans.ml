(* In-memory spans recorded from the benchmark's side of each layer
   boundary, written out as Chrome trace-event JSON when the run ends. *)

type span = {
  id : int;
  name : string;
  op : int;  (** op index; set-up runs are numbered -1, -2, ... *)
  parent : int;  (** id of the enclosing span; -1 at top level *)
  start : float;  (** seconds *)
  stop : float;
  words : float;  (** words allocated inside the span *)
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable stack : int list;
  mutable next : int;
  mutable op : int;
  t0 : float;
}

let create () =
  { spans = []; stack = []; next = 0; op = 0; t0 = Unix.gettimeofday () }

(* Words allocated so far: minor + major - promoted. Not
   [Obs.Trace.alloc_words], whose [Gc.quick_stat] major counter lags
   direct major-heap allocations (every matrix row block here) until the
   next GC slice, so a short span would miss most of its words. *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let record t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let w0 = allocated () in
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    let words = allocated () -. w0 in
    t.stack <- List.tl t.stack;
    t.spans <- { id; name; op = t.op; parent; start; stop; words } :: t.spans
  in
  Fun.protect ~finally:finish f

let tracer t = { Pipeline.span = (fun name f -> record t name f) }

(* Run [f] as op [op]: one top-level span named [name]. *)
let in_op t ~op name f =
  t.op <- op;
  record t name f

let duration s = s.stop -. s.start

let to_json t =
  let event s =
    Stats.Obj
      [
        ("name", Stats.Str s.name);
        ("cat", Stats.Str "ledger");
        ("ph", Stats.Str "X");
        ("ts", Stats.Num ((s.start -. t.t0) *. 1e6));
        ("dur", Stats.Num (duration s *. 1e6));
        ("pid", Stats.Int 0);
        ("tid", Stats.Int 0);
        ( "args",
          Stats.Obj
            [
              ("id", Stats.Int s.id);
              ("parent", Stats.Int s.parent);
              ("op", Stats.Int s.op);
              ("alloc_words", Stats.Num s.words);
            ] );
      ]
  in
  Stats.Obj
    [
      ("traceEvents", Stats.Arr (List.rev_map event t.spans));
      ("displayTimeUnit", Stats.Str "ms");
    ]

(* Per op (ops >= 0 when [setup] is false, set-up runs otherwise), the
   summed duration and allocation of every span called [name]. *)
let per_op t ~setup name =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.name = name && (s.op < 0) = setup then begin
        let d, w = Option.value (Hashtbl.find_opt tbl s.op) ~default:(0., 0.) in
        Hashtbl.replace tbl s.op (d +. duration s, w +. s.words)
      end)
    t.spans;
  Hashtbl.fold (fun _ v acc -> v :: acc) tbl []

(* Per top-level op span called [name]: its duration and the part of it
   its direct children cover. *)
let coverage t name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value (Hashtbl.find_opt children s.parent) ~default:0.))
    t.spans;
  List.filter_map
    (fun s ->
      if s.name = name && s.parent = -1 then
        Some (duration s, Option.value (Hashtbl.find_opt children s.id) ~default:0.)
      else None)
    t.spans
