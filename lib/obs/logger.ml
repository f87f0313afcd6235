type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_of_string s =
  match String.lowercase_ascii s with
  | "off" | "none" -> Ok None
  | "debug" -> Ok (Some Debug)
  | "info" -> Ok (Some Info)
  | "warn" | "warning" -> Ok (Some Warn)
  | "error" -> Ok (Some Error)
  | _ -> Error (Printf.sprintf "unknown log level %S (off|debug|info|warn|error)" s)

type t = {
  mutable level : level option; (* None = disabled *)
  mutable sink : Sink.t option; (* None = stderr, opened lazily *)
}

let default = { level = None; sink = None }

let set_level t level = t.level <- level

let level t = t.level

let set_sink t sink = t.sink <- sink

let enabled_at t lvl =
  match t.level with
  | None -> false
  | Some min -> level_rank lvl >= level_rank min

(* the fallback stderr sink is shared so concurrent lines don't shear *)
let stderr_sink = lazy (Sink.stderr_lines ())

(* timestamp-free so cram tests and log-diffing stay deterministic *)
let render lvl fields msg =
  let b = Buffer.create 96 in
  Printf.bprintf b "[%-5s] %s" (level_name lvl) msg;
  List.iter (fun (k, v) -> Printf.bprintf b " %s=%s" k (Field.to_text v)) fields;
  Buffer.contents b

let log ?(fields = []) t lvl msg =
  if enabled_at t lvl then begin
    let sink =
      match t.sink with Some s -> s | None -> Lazy.force stderr_sink
    in
    Sink.write sink (render lvl fields msg);
    Sink.flush sink
  end

let info ?fields t msg = log ?fields t Info msg

let warn ?fields t msg = log ?fields t Warn msg
