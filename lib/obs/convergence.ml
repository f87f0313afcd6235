(* The --convergence output: solver_iter events as flat JSON lines, for
   plotting convergence curves offline. *)

type t = { mutable sink : Sink.t option }

let default = { sink = None }

let enabled t = t.sink <> None

let set_sink t sink =
  (match t.sink with Some old -> Sink.close old | None -> ());
  t.sink <- sink

let flush t = match t.sink with Some s -> Sink.flush s | None -> ()

let write t (e : Recorder.event) =
  match t.sink with
  | Some s -> Sink.write s (Field.assoc_json (("solver", Field.Str e.name) :: e.fields))
  | None -> ()
