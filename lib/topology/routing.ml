module Sparse = Linalg.Sparse

type reduced = {
  matrix : Sparse.t;
  paths : Path.t array;
  vlinks : int array array;
  edge_vlink : int array;
}

(* BFS from [src]; out_edges are sorted by destination id, so the
   predecessor assignment (first discovery wins) is deterministic. *)
let bfs graph src =
  let nv = Graph.node_count graph in
  if src < 0 || src >= nv then invalid_arg "Routing.bfs: bad source";
  let pred = Array.make nv None in
  let seen = Array.make nv false in
  seen.(src) <- true;
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (e : Graph.edge) ->
        if not seen.(e.dst) then begin
          seen.(e.dst) <- true;
          pred.(e.dst) <- Some e.id;
          Queue.add e.dst q
        end)
      (Graph.out_edges graph u)
  done;
  pred

let path_of_pred graph pred ~src ~dst =
  if src = dst then None
  else begin
    match pred.(dst) with
    | None -> None
    | Some _ ->
        let rec collect node acc =
          if node = src then node :: acc
          else begin
            match pred.(node) with
            | None -> assert false
            | Some eid ->
                let e = Graph.edge graph eid in
                collect e.src (node :: acc)
          end
        in
        let nodes = Array.of_list (collect dst []) in
        Some (Path.make ~graph ~nodes)
  end

let shortest_path graph ~src ~dst =
  let pred = bfs graph src in
  path_of_pred graph pred ~src ~dst

(* Dijkstra with deterministic tie-breaks: on equal distance, prefer the
   smaller predecessor node id (and the out-edge order is already sorted
   by destination). *)
let dijkstra graph ~weight src =
  let nv = Graph.node_count graph in
  if src < 0 || src >= nv then invalid_arg "Routing.dijkstra: bad source";
  let dist = Array.make nv infinity in
  let pred = Array.make nv None in
  let final = Array.make nv false in
  let heap = Heap.create () in
  dist.(src) <- 0.;
  Heap.push heap 0. src;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if not final.(u) then begin
          if d <= dist.(u) then begin
            final.(u) <- true;
            List.iter
              (fun (e : Graph.edge) ->
                let w = weight e.id in
                if w < 0. then invalid_arg "Routing.dijkstra: negative weight";
                let nd = d +. w in
                let better =
                  nd < dist.(e.dst)
                  || nd = dist.(e.dst)
                     && (match pred.(e.dst) with
                        | None -> true
                        | Some prev ->
                            let pe = Graph.edge graph prev in
                            u < pe.Graph.src)
                in
                if (not final.(e.dst)) && better then begin
                  dist.(e.dst) <- nd;
                  pred.(e.dst) <- Some e.id;
                  Heap.push heap nd e.dst
                end)
              (Graph.out_edges graph u)
          end;
          drain ()
        end
        else drain ()
  in
  drain ();
  pred

let shortest_path_weighted graph ~weight ~src ~dst =
  let pred = dijkstra graph ~weight src in
  path_of_pred graph pred ~src ~dst

let paths_between_weighted graph ~weight ~beacons ~destinations =
  let acc = ref [] in
  Array.iter
    (fun b ->
      let pred = dijkstra graph ~weight b in
      Array.iter
        (fun d ->
          match path_of_pred graph pred ~src:b ~dst:d with
          | Some p -> acc := p :: !acc
          | None -> ())
        destinations)
    beacons;
  Array.of_list (List.rev !acc)

let paths_between graph ~beacons ~destinations =
  let acc = ref [] in
  Array.iter
    (fun b ->
      let pred = bfs graph b in
      Array.iter
        (fun d ->
          match path_of_pred graph pred ~src:b ~dst:d with
          | Some p -> acc := p :: !acc
          | None -> ())
        destinations)
    beacons;
  Array.of_list (List.rev !acc)

let reduce graph paths =
  let np = Array.length paths in
  if np = 0 then invalid_arg "Routing.reduce: no paths";
  let ne = Graph.edge_count graph in
  (* rows covering each edge, in increasing row order *)
  let cover = Array.make ne [] in
  Array.iteri
    (fun i p -> Array.iter (fun eid -> cover.(eid) <- i :: cover.(eid)) p.Path.edges)
    paths;
  (* group covered edges by identical cover set (the alias reduction) *)
  let groups : (int list, int list) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  for eid = ne - 1 downto 0 do
    match cover.(eid) with
    | [] -> ()
    | key ->
        (match Hashtbl.find_opt groups key with
        | Some members -> Hashtbl.replace groups key (eid :: members)
        | None ->
            Hashtbl.add groups key [ eid ];
            order := key :: !order)
  done;
  (* [order] was built scanning eids downward, so after the final reversal
     implicit in the construction, groups are ordered by smallest member. *)
  let keys = Array.of_list !order in
  let vlinks =
    Array.map (fun key -> Array.of_list (Hashtbl.find groups key)) keys
  in
  Array.sort
    (fun a b -> Int.compare a.(0) b.(0))
    vlinks;
  let nc = Array.length vlinks in
  let edge_vlink = Array.make ne (-1) in
  Array.iteri (fun j members -> Array.iter (fun eid -> edge_vlink.(eid) <- j) members)
    vlinks;
  let rows =
    Array.map
      (fun (p : Path.t) ->
        let cols = Array.map (fun eid -> edge_vlink.(eid)) p.Path.edges in
        let uniq = List.sort_uniq Int.compare (Array.to_list cols) in
        Array.of_list uniq)
      paths
  in
  { matrix = Sparse.create ~cols:nc rows; paths; vlinks; edge_vlink }

let build graph ~beacons ~destinations =
  reduce graph (paths_between graph ~beacons ~destinations)

let vlink_loss_rate r ~link_loss j =
  if j < 0 || j >= Array.length r.vlinks then
    invalid_arg "Routing.vlink_loss_rate: bad column";
  let trans =
    Array.fold_left (fun acc eid -> acc *. (1. -. link_loss eid)) 1. r.vlinks.(j)
  in
  1. -. trans
