(* Per-iteration solver convergence stream, one flat JSON object per
   line. A sibling of Trace with a narrower schema: each line is one
   CGLS iteration carrying the solve id, iteration index, relative
   residual, and the solve's context (phase, preconditioner).
   The stream is for plotting convergence curves offline; the same
   events also land in the flight recorder and the lia_cgls_* histograms
   regardless of whether a stream sink is installed. *)

type t = { mutable sink : Sink.t option }

let default = { sink = None }

let create () = { sink = None }

let enabled t = t.sink <> None

let set_sink t sink =
  (match t.sink with Some old -> Sink.close old | None -> ());
  t.sink <- sink

let close t = set_sink t None

let flush t = match t.sink with Some s -> Sink.flush s | None -> ()

let emit t ~solver ~solve ~iteration ~relative_residual ~context =
  match t.sink with
  | None -> ()
  | Some sink ->
      Sink.write sink
        (Field.assoc_json
           ([
              ("solver", Field.Str solver);
              ("solve", Field.Int solve);
              ("iteration", Field.Int iteration);
              ("relres", Field.Float relative_residual);
            ]
           @ context))
