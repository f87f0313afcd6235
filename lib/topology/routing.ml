module Sparse = Linalg.Sparse

type reduced = {
  matrix : Sparse.t;
  paths : Path.t array;
  vlinks : int array array;
  edge_vlink : int array;
}

(* BFS from [src] into [pred], each node's predecessor edge on its route
   (-1 for none), with [queue] as room; both are reused across sources.
   Out-edges come in increasing destination, so the predecessor
   assignment (first discovery wins) is deterministic. *)
let bfs graph ~queue pred src =
  if src < 0 || src >= Graph.node_count graph then
    invalid_arg "Routing.bfs: bad source";
  let out = Graph.out_edges graph in
  Array.fill pred 0 (Array.length pred) (-1);
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for k = out.start.(u) to out.start.(u + 1) - 1 do
      let v = out.dst.(k) in
      if v <> src && pred.(v) < 0 then begin
        pred.(v) <- out.id.(k);
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

(* The route to [dst]: its edges read off the predecessor chain, back to
   front, and its nodes from the edges' sources. *)
let route graph pred ~src ~dst =
  if src = dst || pred.(dst) < 0 then None
  else begin
    let src_of v = (Graph.edge graph pred.(v)).Graph.src in
    let hops = ref 0 and v = ref dst in
    while !v <> src do
      incr hops;
      v := src_of !v
    done;
    let edges = Array.make !hops 0 and nodes = Array.make (!hops + 1) dst in
    let v = ref dst in
    for i = !hops - 1 downto 0 do
      edges.(i) <- pred.(!v);
      v := src_of !v;
      nodes.(i) <- !v
    done;
    Some { Path.src; dst; nodes; edges }
  end

let shortest_path graph ~src ~dst =
  let nv = Graph.node_count graph in
  let pred = Array.make nv (-1) in
  bfs graph ~queue:(Array.make nv 0) pred src;
  route graph pred ~src ~dst

(* Dijkstra with deterministic tie-breaks: on equal distance, prefer the
   smaller predecessor node id (and the out-edge order is already sorted
   by destination). *)
let dijkstra graph ~weight pred src =
  let nv = Graph.node_count graph in
  if src < 0 || src >= nv then invalid_arg "Routing.dijkstra: bad source";
  let out = Graph.out_edges graph in
  let dist = Array.make nv infinity in
  Array.fill pred 0 nv (-1);
  let final = Array.make nv false in
  let heap = Heap.create () in
  dist.(src) <- 0.;
  Heap.push heap 0. src;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, u) ->
        if (not final.(u)) && d <= dist.(u) then begin
          final.(u) <- true;
          for k = out.start.(u) to out.start.(u + 1) - 1 do
            let w = weight out.id.(k) in
            if w < 0. then invalid_arg "Routing.dijkstra: negative weight";
            let nd = d +. w and v = out.dst.(k) in
            let better =
              nd < dist.(v)
              || nd = dist.(v)
                 && (pred.(v) < 0 || u < (Graph.edge graph pred.(v)).Graph.src)
            in
            if (not final.(v)) && better then begin
              dist.(v) <- nd;
              pred.(v) <- out.id.(k);
              Heap.push heap nd v
            end
          done
        end;
        drain ()
  in
  drain ()

let shortest_path_weighted graph ~weight ~src ~dst =
  let pred = Array.make (Graph.node_count graph) (-1) in
  dijkstra graph ~weight pred src;
  route graph pred ~src ~dst

(* every route from each beacon, beacon-major, after [from pred b] has
   filled [pred] *)
let routes graph ~from ~beacons ~destinations =
  let pred = Array.make (Graph.node_count graph) (-1) in
  let acc = ref [] in
  Array.iter
    (fun b ->
      from pred b;
      Array.iter
        (fun d ->
          match route graph pred ~src:b ~dst:d with
          | Some p -> acc := p :: !acc
          | None -> ())
        destinations)
    beacons;
  Array.of_list (List.rev !acc)

let paths_between_weighted graph ~weight ~beacons ~destinations =
  routes graph ~from:(dijkstra graph ~weight) ~beacons ~destinations

let paths_between graph ~beacons ~destinations =
  let queue = Array.make (Graph.node_count graph) 0 in
  routes graph ~from:(bfs graph ~queue) ~beacons ~destinations

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
