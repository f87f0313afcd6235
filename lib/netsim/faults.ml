module Matrix = Linalg.Matrix
module Rng = Nstats.Rng

type t = {
  seed : int;
  drop : float;
  miss : float;
  nan_ : float;
  oor : float;
  neg : float;
  dup : float;
  churn : (int * float) option;  (* hosts, window fraction *)
  route_shift : float option;  (* window fraction *)
}

let none =
  {
    seed = 0;
    drop = 0.;
    miss = 0.;
    nan_ = 0.;
    oor = 0.;
    neg = 0.;
    dup = 0.;
    churn = None;
    route_shift = None;
  }

let is_none t = { t with seed = 0 } = none

(* --- DSL ---------------------------------------------------------------- *)

let parse s =
  let ( let* ) = Result.bind in
  let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let prob key v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 1. -> Ok p
    | _ -> err "%s=%s: expected a probability in [0,1]" key v
  in
  let clauses =
    String.split_on_char ',' s
    |> List.concat_map (String.split_on_char ';')
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  List.fold_left
    (fun acc clause ->
      let* t = acc in
      match String.index_opt clause '=' with
      | None ->
          if clause = "none" then Ok t
          else err "unknown fault clause %S" clause
      | Some i -> (
          let key = String.sub clause 0 i
          and v = String.sub clause (i + 1) (String.length clause - i - 1) in
          match key with
          | "seed" -> (
              match int_of_string_opt v with
              | Some seed -> Ok { t with seed }
              | None -> err "seed=%s: expected an integer" v)
          | "drop" ->
              let* p = prob key v in
              Ok { t with drop = p }
          | "miss" ->
              let* p = prob key v in
              Ok { t with miss = p }
          | "nan" ->
              let* p = prob key v in
              Ok { t with nan_ = p }
          | "oor" ->
              let* p = prob key v in
              Ok { t with oor = p }
          | "neg" ->
              let* p = prob key v in
              Ok { t with neg = p }
          | "dup" ->
              let* p = prob key v in
              Ok { t with dup = p }
          | "churn" -> (
              match String.split_on_char '@' v with
              | [ k; f ] -> (
                  match (int_of_string_opt k, float_of_string_opt f) with
                  | Some k, Some f when k > 0 && f >= 0. && f <= 1. ->
                      Ok { t with churn = Some (k, f) }
                  | _ -> err "churn=%s: expected K@F with K > 0, F in [0,1]" v)
              | _ -> err "churn=%s: expected K@F" v)
          | "route_shift" -> (
              match float_of_string_opt v with
              | Some f when f >= 0. && f <= 1. ->
                  Ok { t with route_shift = Some f }
              | _ -> err "route_shift=%s: expected a fraction in [0,1]" v)
          | _ -> err "unknown fault key %S" key))
    (Ok none) clauses

(* the shortest of 15, 16 and 17 significant digits that reads back as
   [x]: [0.2] prints as [0.2], and every double round-trips *)
let number x =
  let s = Printf.sprintf "%.15g" x in
  if float_of_string s = x then s
  else
    let s = Printf.sprintf "%.16g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let to_string t =
  let b = Buffer.create 64 in
  let clause fmt = Printf.ksprintf (fun c ->
      if Buffer.length b > 0 then Buffer.add_char b ',';
      Buffer.add_string b c) fmt
  in
  if t.seed <> 0 then clause "seed=%d" t.seed;
  if t.drop > 0. then clause "drop=%s" (number t.drop);
  if t.miss > 0. then clause "miss=%s" (number t.miss);
  if t.nan_ > 0. then clause "nan=%s" (number t.nan_);
  if t.oor > 0. then clause "oor=%s" (number t.oor);
  if t.neg > 0. then clause "neg=%s" (number t.neg);
  if t.dup > 0. then clause "dup=%s" (number t.dup);
  Option.iter (fun (k, f) -> clause "churn=%d@%s" k (number f)) t.churn;
  Option.iter (fun f -> clause "route_shift=%s" (number f)) t.route_shift;
  if Buffer.length b = 0 then "none" else Buffer.contents b

(* --- injection ---------------------------------------------------------- *)

type event =
  | Route_shift of { at : int; a : int; b : int }
  | Churn of { at : int; host : int }
  | Cell of { snapshot : int; path : int; what : string }
  | Duplicated of int
  | Dropped of int

type schedule = event list

let apply t y =
  if is_none t then (Matrix.copy y, [])
  else begin
    let m = Matrix.rows y and np = Matrix.cols y in
    let rng = Rng.create t.seed in
    let out = Matrix.copy y in
    let events = ref [] in
    let record e = events := e :: !events in
    (* 1. route shift: swap two columns from a snapshot onward *)
    Option.iter
      (fun f ->
        if np >= 2 then begin
          let at = min (m - 1) (int_of_float (f *. float_of_int m)) in
          let a = Rng.int rng np in
          let b = (a + 1 + Rng.int rng (np - 1)) mod np in
          let a, b = (min a b, max a b) in
          for l = max 0 at to m - 1 do
            let va = Matrix.get out l a in
            Matrix.set out l a (Matrix.get out l b);
            Matrix.set out l b va
          done;
          record (Route_shift { at; a; b })
        end)
      t.route_shift;
    (* 2. host churn: chosen columns stop reporting from a snapshot onward *)
    Option.iter
      (fun (k, f) ->
        let k = min k np in
        let at = min (m - 1) (int_of_float (f *. float_of_int m)) in
        let hosts = Rng.sample_without_replacement rng k np in
        Array.sort compare hosts;
        Array.iter
          (fun host ->
            for l = max 0 at to m - 1 do
              Matrix.set out l host Float.nan
            done;
            record (Churn { at; host }))
          hosts)
      t.churn;
    (* 3. cell faults, row-major, one draw per active kind per cell *)
    let cell_kinds =
      List.filter
        (fun (_, p, _) -> p > 0.)
        [
          ("miss", t.miss, fun () -> Float.nan);
          ("nan", t.nan_, fun () -> Float.nan);
          ("oor", t.oor, fun () -> Rng.uniform rng 1e-6 0.5);
          ("neg", t.neg, fun () -> Float.neg_infinity);
        ]
    in
    if cell_kinds <> [] then
      for l = 0 to m - 1 do
        for i = 0 to np - 1 do
          List.iter
            (fun (what, p, v) ->
              if Rng.bool rng p then begin
                Matrix.set out l i (v ());
                record (Cell { snapshot = l; path = i; what })
              end)
            cell_kinds
        done
      done;
    (* 4. per-row duplication and dropping *)
    if t.dup > 0. || t.drop > 0. then begin
      let keep_rows = ref [] in
      for l = 0 to m - 1 do
        let dropped = t.drop > 0. && Rng.bool rng t.drop in
        let duplicated = t.dup > 0. && Rng.bool rng t.dup in
        if dropped then record (Dropped l)
        else begin
          keep_rows := l :: !keep_rows;
          if duplicated then begin
            keep_rows := l :: !keep_rows;
            record (Duplicated l)
          end
        end
      done;
      let rows = Array.of_list (List.rev !keep_rows) in
      let out' =
        Matrix.init (Array.length rows) np (fun l i -> Matrix.get out rows.(l) i)
      in
      (out', List.rev !events)
    end
    else (out, List.rev !events)
  end

let summary schedule =
  if schedule = [] then "no faults injected"
  else begin
    let dropped = ref 0
    and duplicated = ref 0
    and churned = ref 0
    and shifts = ref 0 in
    let cells = Hashtbl.create 4 in
    let cells_total = ref 0 in
    List.iter
      (function
        | Dropped _ -> incr dropped
        | Duplicated _ -> incr duplicated
        | Churn _ -> incr churned
        | Route_shift _ -> incr shifts
        | Cell { what; _ } ->
            incr cells_total;
            Hashtbl.replace cells what
              (1 + Option.value ~default:0 (Hashtbl.find_opt cells what)))
      schedule;
    let parts = ref [] in
    let part fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
    if !shifts > 0 then part "route shifts %d" !shifts;
    if !churned > 0 then part "churned hosts %d" !churned;
    if !cells_total > 0 then begin
      let kinds =
        List.filter_map
          (fun what ->
            Option.map
              (Printf.sprintf "%s %d" what)
              (Hashtbl.find_opt cells what))
          [ "miss"; "nan"; "oor"; "neg" ]
      in
      part "cells %d (%s)" !cells_total (String.concat ", " kinds)
    end;
    if !duplicated > 0 then part "duplicated %d" !duplicated;
    if !dropped > 0 then part "dropped %d" !dropped;
    String.concat ", " (List.rev !parts)
  end
