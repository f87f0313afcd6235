(* Flight recorder: per-domain ring buffers holding the recent tail of
   the event stream.

   The recorder answers "what was the process doing just before it
   failed?" without the cost or volume of full tracing: every event
   Event.emit routes here is appended to the ring of the domain that
   emitted it (fixed capacity, drop-oldest), so a steady stream of
   solver iterations keeps exactly the recent tail, and a disabled
   recorder costs one branch.

   A ring stores events as emitted; an event's [seq] is its position in
   the ring's write order, filled in when the ring is read. Reads merge
   the rings by a stable sort on (ts_us, domain, seq): timestamps vary
   run to run, but for fixed ring contents the merge order is a pure
   function of the events ([domain] is a label, never a key the
   analysis depends on).

   Dumps are JSONL: a header object, then one event object per line.
   They happen on demand ([dump]), through [auto_dump] when a dump path
   is configured (wired to Refused verdicts and solver non-convergence
   by the core layers), and at process exit. *)

let shards = 16 (* power of two, matching Metrics' sharding *)

type event = {
  seq : int;
  domain : int;
  ts_us : int64;
  kind : string;
  name : string;
  fields : (string * Field.t) list;
}

type ring = {
  r_mutex : Mutex.t;
  mutable slots : event array; (* allocated on first record *)
  mutable written : int; (* events ever recorded into this ring *)
}

type t = {
  on : bool ref;
  capacity : int; (* per-ring *)
  rings : ring array;
  config : Mutex.t;
  mutable dump_path : string option;
  mutable exit_hooked : bool;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Obs.Recorder.create: capacity < 1";
  {
    on = ref false;
    capacity;
    rings =
      Array.init shards (fun _ ->
          { r_mutex = Mutex.create (); slots = [||]; written = 0 });
    config = Mutex.create ();
    dump_path = None;
    exit_hooked = false;
  }

let default = create ()

let enable t = t.on := true

let disable t = t.on := false

let enabled t = !(t.on)

let record t e =
  if !(t.on) then begin
    let ring = t.rings.(e.domain land (shards - 1)) in
    Mutex.lock ring.r_mutex;
    if Array.length ring.slots = 0 then ring.slots <- Array.make t.capacity e;
    ring.slots.(ring.written mod t.capacity) <- e;
    ring.written <- ring.written + 1;
    Mutex.unlock ring.r_mutex
  end

let ring_events ring capacity =
  Mutex.lock ring.r_mutex;
  let written = ring.written in
  let n = min written capacity in
  let out =
    Array.init n (fun k ->
        (* oldest surviving event first *)
        let seq = written - n + k in
        { (ring.slots.(seq mod capacity)) with seq })
  in
  Mutex.unlock ring.r_mutex;
  Array.to_list out

let events t =
  let all =
    Array.to_list t.rings
    |> List.concat_map (fun ring -> ring_events ring t.capacity)
  in
  List.stable_sort
    (fun a b ->
      match Int64.compare a.ts_us b.ts_us with
      | 0 -> (
          match Int.compare a.domain b.domain with
          | 0 -> Int.compare a.seq b.seq
          | c -> c)
      | c -> c)
    all

let recorded t =
  Array.fold_left (fun acc ring -> acc + ring.written) 0 t.rings

let dropped t =
  Array.fold_left
    (fun acc ring -> acc + max 0 (ring.written - t.capacity))
    0 t.rings

let reset t =
  Array.iter
    (fun ring ->
      Mutex.lock ring.r_mutex;
      ring.slots <- [||];
      ring.written <- 0;
      Mutex.unlock ring.r_mutex)
    t.rings

let event_json e =
  let b = Buffer.create 128 in
  Printf.bprintf b
    "{\"kind\": %s, \"name\": %s, \"domain\": %d, \"seq\": %d, \"ts_us\": %Ld"
    (Field.json_string e.kind) (Field.json_string e.name) e.domain e.seq
    e.ts_us;
  if e.fields <> [] then
    Printf.bprintf b ", \"args\": %s" (Field.assoc_json e.fields);
  Buffer.add_char b '}';
  Buffer.contents b

let dump t ~reason sink =
  let evs = events t in
  Sink.write sink
    (Field.assoc_json
       [
         ("kind", Field.Str "recorder_dump");
         ("reason", Field.Str reason);
         ("events", Field.Int (List.length evs));
         ("dropped", Field.Int (dropped t));
         ("capacity", Field.Int t.capacity);
       ]);
  List.iter (fun e -> Sink.write sink (event_json e)) evs;
  Sink.flush sink

let dump_path t =
  Mutex.lock t.config;
  let p = t.dump_path in
  Mutex.unlock t.config;
  p

let auto_dump t ~reason =
  match dump_path t with
  | None -> ()
  | Some path ->
      let sink = Sink.file path in
      Fun.protect ~finally:(fun () -> Sink.close sink) (fun () ->
          dump t ~reason sink)

let set_dump_path t path =
  Mutex.lock t.config;
  t.dump_path <- path;
  let hook = path <> None && not t.exit_hooked in
  if hook then t.exit_hooked <- true;
  Mutex.unlock t.config;
  (* each dump truncates the file, so the exit-time dump supersedes any
     earlier refusal/non-convergence dump with a superset of its events *)
  if hook then at_exit (fun () -> if enabled t then auto_dump t ~reason:"exit")
