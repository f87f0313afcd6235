type label = As of int | Border

type group = { label : label; cols : int array }

type t = { groups : group array; ncols : int }

(* border sorts after every AS id *)
let label_rank = function As a -> (0, a) | Border -> (1, 0)

let compare_label l1 l2 = compare (label_rank l1) (label_rank l2)

let by_as graph (red : Routing.reduced) =
  let ncols = Linalg.Sparse.cols red.matrix in
  let classify j =
    let members = red.vlinks.(j) in
    if Array.length members = 0 then Border
    else begin
      let lbl = ref None in
      (try
         Array.iter
           (fun e ->
             if Graph.is_inter_as graph e then begin
               lbl := Some Border;
               raise Exit
             end;
             let a = (Graph.node graph (Graph.edge graph e).src).as_id in
             match !lbl with
             | None -> lbl := Some (As a)
             | Some (As a') when a' = a -> ()
             | Some _ ->
                 (* aliased edges from different ASes: boundary-coupled *)
                 lbl := Some Border;
                 raise Exit)
           members
       with Exit -> ());
      Option.get !lbl
    end
  in
  let tbl = Hashtbl.create 16 in
  for j = 0 to ncols - 1 do
    let l = classify j in
    let prev = Option.value (Hashtbl.find_opt tbl l) ~default:[] in
    Hashtbl.replace tbl l (j :: prev)
  done;
  let groups =
    Hashtbl.fold
      (fun label cols acc ->
        (* columns were consed in descending order: reverse restores
           ascending *)
        { label; cols = Array.of_list (List.rev cols) } :: acc)
      tbl []
    |> List.sort (fun g1 g2 -> compare_label g1.label g2.label)
    |> Array.of_list
  in
  { groups; ncols }

let group_cols p = Array.map (fun g -> g.cols) p.groups

let order p =
  let out = Array.make p.ncols 0 in
  let k = ref 0 in
  Array.iter
    (fun g ->
      Array.iter
        (fun j ->
          out.(!k) <- j;
          incr k)
        g.cols)
    p.groups;
  out
