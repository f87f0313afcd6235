(* The --trace output: Chrome trace-event JSONL rendered from the event
   stream's span_end and instant events.

   The output is the Chrome/Perfetto "JSON array format" written
   incrementally: the first line is "[", every event line is a complete
   JSON object followed by a comma, and the closing "]" is omitted — the
   loaders accept the unterminated form, which lets us append from
   several domains and survive a killed process. A span_end is stamped
   when the span ends and carries its duration, so the "X" event starts
   at ts_us - dur_us; the recorder-only alloc_words field stays out of
   the args. *)

type t = { mutable sink : Sink.t option }

let default = { sink = None }

let enabled t = t.sink <> None

let set_sink t sink =
  (match t.sink with Some old -> Sink.close old | None -> ());
  t.sink <- sink;
  match sink with Some s -> Sink.write s "[" | None -> ()

let render (e : Recorder.event) =
  let dur =
    match List.assoc_opt "dur_us" e.fields with
    | Some (Field.Int d) when e.kind = "span_end" -> Some d
    | _ -> None
  in
  let args =
    if dur = None then e.fields
    else
      List.filter (fun (k, _) -> k <> "dur_us" && k <> "alloc_words") e.fields
  in
  let b = Buffer.create 160 in
  Printf.bprintf b
    "{\"name\": %s, \"cat\": \"lia\", \"ph\": \"%c\", \"ts\": %Ld, \"pid\": 0, \
     \"tid\": %d"
    (Field.json_string e.name)
    (if dur = None then 'i' else 'X')
    (match dur with Some d -> Int64.sub e.ts_us (Int64.of_int d) | None -> e.ts_us)
    e.domain;
  Option.iter (Printf.bprintf b ", \"dur\": %d") dur;
  if args <> [] then Printf.bprintf b ", \"args\": %s" (Field.assoc_json args);
  Buffer.add_string b "},";
  Buffer.contents b

let write t e = match t.sink with Some s -> Sink.write s (render e) | None -> ()
