type layer = { mark : char; points : (float * float) list; is_line : bool }

type canvas = {
  width : int;
  height : int;
  mutable layers : layer list; (* newest first *)
}

let create ?(width = 64) ?(height = 20) () =
  if width < 8 || height < 4 then invalid_arg "Asciiplot.create: canvas too small";
  { width; height; layers = [] }

let scatter canvas points =
  canvas.layers <- { mark = '*'; points; is_line = false } :: canvas.layers

let line ?(mark = '+') canvas points =
  canvas.layers <- { mark; points; is_line = true } :: canvas.layers

let bounds canvas =
  let all = List.concat_map (fun l -> l.points) canvas.layers in
  match all with
  | [] -> (0., 1., 0., 1.)
  | (x0, y0) :: rest ->
      let xmin, xmax, ymin, ymax =
        List.fold_left
          (fun (a, b, c, d) (x, y) ->
            (Float.min a x, Float.max b x, Float.min c y, Float.max d y))
          (x0, x0, y0, y0) rest
      in
      let pad lo hi = if lo = hi then (lo -. 0.5, hi +. 0.5) else (lo, hi) in
      let xmin, xmax = pad xmin xmax in
      let ymin, ymax = pad ymin ymax in
      (xmin, xmax, ymin, ymax)

let render ?(x_label = "") ?(y_label = "") canvas =
  let xmin, xmax, ymin, ymax = bounds canvas in
  let grid = Array.make_matrix canvas.height canvas.width ' ' in
  let to_cell (x, y) =
    let cx =
      int_of_float
        (Float.round
           ((x -. xmin) /. (xmax -. xmin) *. float_of_int (canvas.width - 1)))
    in
    let cy =
      int_of_float
        (Float.round
           ((y -. ymin) /. (ymax -. ymin) *. float_of_int (canvas.height - 1)))
    in
    if cx < 0 || cx >= canvas.width || cy < 0 || cy >= canvas.height then None
    else Some (cx, canvas.height - 1 - cy)
  in
  let put mark p =
    match to_cell p with Some (cx, cy) -> grid.(cy).(cx) <- mark | None -> ()
  in
  (* draw oldest layers first so newer marks overwrite *)
  List.iter
    (fun layer ->
      if layer.is_line then begin
        (* sample linearly between consecutive points *)
        let sorted =
          List.sort (fun (a, _) (b, _) -> Float.compare a b) layer.points
        in
        let rec draw = function
          | (x1, y1) :: ((x2, y2) :: _ as rest) ->
              let steps = max 1 canvas.width in
              for s = 0 to steps do
                let t = float_of_int s /. float_of_int steps in
                put layer.mark (x1 +. (t *. (x2 -. x1)), y1 +. (t *. (y2 -. y1)))
              done;
              draw rest
          | [ p ] -> put layer.mark p
          | [] -> ()
        in
        draw sorted
      end
      else List.iter (put layer.mark) layer.points)
    (List.rev canvas.layers);
  let b = Buffer.create ((canvas.width + 4) * (canvas.height + 4)) in
  if y_label <> "" then Buffer.add_string b (y_label ^ "\n");
  Buffer.add_string b (Printf.sprintf "%10.4g ┤" ymax);
  Buffer.add_char b '\n';
  Array.iteri
    (fun row line_cells ->
      if row = canvas.height - 1 then
        Buffer.add_string b (Printf.sprintf "%10.4g ┤" ymin)
      else Buffer.add_string b (String.make 11 ' ' ^ "│");
      Array.iter (Buffer.add_char b) line_cells;
      Buffer.add_char b '\n')
    grid;
  Buffer.add_string b (String.make 11 ' ' ^ "└" ^ String.make canvas.width '-');
  Buffer.add_char b '\n';
  Buffer.add_string b
    (Printf.sprintf "%s%.4g%s%.4g  %s\n" (String.make 12 ' ') xmin
       (String.make (max 1 (canvas.width - 16)) ' ')
       xmax x_label);
  Buffer.contents b

let plot_cdf ?height ecdf =
  let canvas = create ?height () in
  line canvas (Ecdf.curve ~points:60 ecdf);
  render ~y_label:"F(x)" canvas

let plot_series ?height series =
  let canvas = create ?height () in
  List.iter (fun (mark, points) -> line ~mark canvas points) series;
  render canvas
