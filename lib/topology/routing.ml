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

(* An odd multiplier for the cover-set hash, near 2^61 / golden ratio
   (Fibonacci hashing). *)
let golden = 0x13C6EF372FE94F7B

let reduce graph paths =
  let np = Array.length paths in
  if np = 0 then invalid_arg "Routing.reduce: no paths";
  let ne = Graph.edge_count graph in
  (* Routes cross a small share of a testbed's edges, so everything but
     [edge_vlink] is sized by the covered edges. [edge_vlink] first marks
     them (-2), then numbers them in increasing edge id: [covered.(k)]
     is the k-th. *)
  let edge_vlink = Array.make ne (-1) in
  let ncov = ref 0 and crossings = ref 0 in
  Array.iter
    (fun (p : Path.t) ->
      Array.iter
        (fun e ->
          if edge_vlink.(e) = -1 then begin
            edge_vlink.(e) <- -2;
            incr ncov
          end)
        p.Path.edges;
      crossings := !crossings + Array.length p.Path.edges)
    paths;
  let ncov = !ncov in
  let covered = Array.make ncov 0 in
  let k = ref 0 in
  for e = 0 to ne - 1 do
    if edge_vlink.(e) = -2 then begin
      edge_vlink.(e) <- !k;
      covered.(!k) <- e;
      incr k
    end
  done;
  (* The rows crossing each covered edge, once per crossing and in
     increasing row order: edge [covered.(k)]'s cover set is
     [cover.(start.(k))] up to [cover.(start.(k + 1) - 1)]. Its hash is
     taken as the rows are added. *)
  let start = Array.make (ncov + 1) 0 in
  Array.iter
    (fun (p : Path.t) ->
      Array.iter
        (fun e ->
          let k = edge_vlink.(e) + 1 in
          start.(k) <- start.(k) + 1)
        p.Path.edges)
    paths;
  for k = 0 to ncov - 1 do
    start.(k + 1) <- start.(k + 1) + start.(k)
  done;
  let next = Array.sub start 0 ncov in
  let cover = Array.make !crossings 0 and hash = Array.make ncov 0 in
  Array.iteri
    (fun i (p : Path.t) ->
      Array.iter
        (fun e ->
          let k = edge_vlink.(e) in
          cover.(next.(k)) <- i;
          next.(k) <- next.(k) + 1;
          hash.(k) <- ((hash.(k) + i + 1) * golden) lxor (hash.(k) lsr 29))
        p.Path.edges)
    paths;
  let same_cover k l =
    let n = start.(k + 1) - start.(k) in
    n = start.(l + 1) - start.(l)
    &&
    let c = ref 0 in
    while !c < n && cover.(start.(k) + !c) = cover.(start.(l) + !c) do incr c done;
    !c = n
  in
  (* Group the covered edges by cover set (the alias reduction) in an
     open-addressing table of group ids. Edges are taken in increasing
     id, so groups are numbered by smallest member. *)
  let bits = ref 1 in
  while 1 lsl !bits < 2 * ncov do incr bits done;
  let mask = (1 lsl !bits) - 1 in
  let table = Array.make (mask + 1) (-1) in
  let first = Array.make ncov 0 and size = Array.make ncov 0 in
  let group = Array.make ncov 0 in
  let nc = ref 0 in
  for k = 0 to ncov - 1 do
    let slot = ref ((hash.(k) * golden) lsr (62 - !bits) land mask) in
    while
      table.(!slot) >= 0
      &&
      let f = first.(table.(!slot)) in
      not (hash.(f) = hash.(k) && same_cover f k)
    do
      slot := (!slot + 1) land mask
    done;
    if table.(!slot) < 0 then begin
      table.(!slot) <- !nc;
      first.(!nc) <- k;
      incr nc
    end;
    let j = table.(!slot) in
    group.(k) <- j;
    size.(j) <- size.(j) + 1
  done;
  let nc = !nc in
  let vlinks = Array.init nc (fun j -> Array.make size.(j) 0) in
  Array.fill size 0 nc 0;
  for k = 0 to ncov - 1 do
    let j = group.(k) in
    vlinks.(j).(size.(j)) <- covered.(k);
    size.(j) <- size.(j) + 1;
    edge_vlink.(covered.(k)) <- j
  done;
  (* each row: its edges' columns, sorted and deduplicated in place
     (insertion sort: routes are a few hops long) *)
  let rows =
    Array.map
      (fun (p : Path.t) ->
        let r = Array.map (fun e -> edge_vlink.(e)) p.Path.edges in
        for k = 1 to Array.length r - 1 do
          let x = r.(k) and i = ref (k - 1) in
          while !i >= 0 && r.(!i) > x do
            r.(!i + 1) <- r.(!i);
            decr i
          done;
          r.(!i + 1) <- x
        done;
        let n = ref 0 in
        for k = 0 to Array.length r - 1 do
          if !n = 0 || r.(!n - 1) <> r.(k) then begin
            r.(!n) <- r.(k);
            incr n
          end
        done;
        if !n = Array.length r then r else Array.sub r 0 !n)
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
