(* Minimal JSON reader for the telemetry formats this library itself
   writes (recorder dumps, convergence streams, trace events, and the
   Prometheus text format's JSON cousins). Recursive descent over a
   string, no dependencies; not a general-purpose validator — it accepts
   exactly RFC 8259 syntax but reports errors by character offset
   only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of { offset : int; message : string }

let fail offset message = raise (Parse_error { offset; message })

type cursor = { src : string; mutable pos : int }

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' ->
            advance c;
            Buffer.add_char b '"';
            go ()
        | Some '\\' ->
            advance c;
            Buffer.add_char b '\\';
            go ()
        | Some '/' ->
            advance c;
            Buffer.add_char b '/';
            go ()
        | Some 'b' ->
            advance c;
            Buffer.add_char b '\b';
            go ()
        | Some 'f' ->
            advance c;
            Buffer.add_char b '\012';
            go ()
        | Some 'n' ->
            advance c;
            Buffer.add_char b '\n';
            go ()
        | Some 'r' ->
            advance c;
            Buffer.add_char b '\r';
            go ()
        | Some 't' ->
            advance c;
            Buffer.add_char b '\t';
            go ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then
              fail c.pos "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail c.pos "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* UTF-8 encode the BMP code point; surrogate pairs are not
               recombined (the writers never emit them) *)
            if code < 0x80 then Buffer.add_char b (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
            end;
            go ()
        | _ -> fail c.pos "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char b ch;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let numchar = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch when numchar ch -> advance c; true | _ -> false
  do
    ()
  done;
  if c.pos = start then fail start "expected number";
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some f -> f
  | None -> fail start "bad number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let key = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ((key, v) :: acc)
          | Some '}' ->
              advance c;
              List.rev ((key, v) :: acc)
          | _ -> fail c.pos "expected ',' or '}'"
        in
        Obj (members [])
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              elements (v :: acc)
          | Some ']' ->
              advance c;
              List.rev (v :: acc)
          | _ -> fail c.pos "expected ',' or ']'"
        in
        List (elements [])
      end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let of_string s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing characters";
  v

let of_string_opt s = try Some (of_string s) with Parse_error _ -> None

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_float_opt = function
  | Num f -> Some f
  | _ -> None

let to_int_opt = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None
