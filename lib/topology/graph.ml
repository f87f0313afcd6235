type node_kind = Host | Router

type node = { id : int; kind : node_kind; as_id : int }

(* declared before [edge], so that an unannotated [e.dst] stays an edge's *)
type csr = { start : int array; dst : int array; id : int array }

type edge = { id : int; src : int; dst : int }

type t = {
  g_nodes : node array;
  g_edges : edge array;
  out : csr;
  in_deg : int array;
}

(* The first [n] edges by source, then by destination: a counting sort
   by destination, then a stable one by source. Each node's slots come
   out in increasing destination, and duplicate edges sit next to each
   other. *)
let csr nv (edges : edge array) n =
  let at = Array.make (nv + 1) 0 in
  for k = 0 to n - 1 do
    let d = edges.(k).dst in
    at.(d + 1) <- at.(d + 1) + 1
  done;
  for v = 1 to nv do at.(v) <- at.(v) + at.(v - 1) done;
  let by_dst = Array.make n 0 in
  for k = 0 to n - 1 do
    let d = edges.(k).dst in
    by_dst.(at.(d)) <- k;
    at.(d) <- at.(d) + 1
  done;
  let start = Array.make (nv + 1) 0 in
  for k = 0 to n - 1 do
    let s = edges.(k).src in
    start.(s + 1) <- start.(s + 1) + 1
  done;
  for v = 1 to nv do start.(v) <- start.(v) + start.(v - 1) done;
  let fill = Array.sub start 0 nv in
  let dst = Array.make n 0 and id = Array.make n 0 in
  Array.iter
    (fun k ->
      let e = edges.(k) in
      dst.(fill.(e.src)) <- e.dst;
      id.(fill.(e.src)) <- k;
      fill.(e.src) <- fill.(e.src) + 1)
    by_dst;
  { start; dst; id }

let create ~nodes ~edges =
  let nv = Array.length nodes in
  Array.iteri
    (fun i (n : node) ->
      if n.id <> i then invalid_arg "Graph.create: node id mismatch")
    nodes;
  let g_edges = Array.mapi (fun id (src, dst) -> { id; src; dst }) edges in
  let ne = Array.length g_edges in
  (* Edges are checked in id order, each for its range, then for a loop,
     then for repeating an earlier edge. The edges before the first bad
     range or loop fill the CSR; a duplicate among them comes first. *)
  let out_of_range e = e.src < 0 || e.src >= nv || e.dst < 0 || e.dst >= nv in
  let bad e = out_of_range e || e.src = e.dst in
  let ok = ref 0 in
  while !ok < ne && not (bad g_edges.(!ok)) do incr ok done;
  let out = csr nv g_edges !ok in
  for u = 0 to nv - 1 do
    for k = out.start.(u) + 1 to out.start.(u + 1) - 1 do
      if out.dst.(k - 1) = out.dst.(k) then invalid_arg "Graph.create: duplicate edge"
    done
  done;
  if !ok < ne then
    invalid_arg
      (if out_of_range g_edges.(!ok) then "Graph.create: edge endpoint out of range"
       else "Graph.create: self-loop");
  let in_deg = Array.make nv 0 in
  Array.iter (fun e -> in_deg.(e.dst) <- in_deg.(e.dst) + 1) g_edges;
  { g_nodes = nodes; g_edges; out; in_deg }

let of_undirected ~nodes ~links =
  let directed =
    Array.concat
      [ links; Array.map (fun (u, v) -> (v, u)) links ]
  in
  create ~nodes ~edges:directed

let node_count g = Array.length g.g_nodes

let edge_count g = Array.length g.g_edges

let node g i =
  if i < 0 || i >= node_count g then invalid_arg "Graph.node: bad id";
  g.g_nodes.(i)

let edge g i =
  if i < 0 || i >= edge_count g then invalid_arg "Graph.edge: bad id";
  g.g_edges.(i)

let nodes g = Array.copy g.g_nodes

let edges g = Array.copy g.g_edges

let out_edges g = g.out

let out_degree g i =
  if i < 0 || i >= node_count g then invalid_arg "Graph.out_degree: bad id";
  g.out.start.(i + 1) - g.out.start.(i)

let in_degree g i =
  if i < 0 || i >= node_count g then invalid_arg "Graph.in_degree: bad id";
  g.in_deg.(i)

let find_edge g ~src ~dst =
  if src < 0 || src >= node_count g then None
  else begin
    (* binary search of the source's slots, in increasing destination *)
    let out = g.out in
    let lo = ref out.start.(src) and hi = ref out.start.(src + 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if out.dst.(mid) < dst then lo := mid + 1 else hi := mid
    done;
    if !lo < out.start.(src + 1) && out.dst.(!lo) = dst then
      Some g.g_edges.(out.id.(!lo))
    else None
  end

let hosts g =
  Array.of_list
    (Array.to_list g.g_nodes |> List.filter (fun n -> n.kind = Host))

let is_inter_as g eid =
  let e = edge g eid in
  (node g e.src).as_id <> (node g e.dst).as_id

(* union-find over the edges, halving paths *)
let undirected_components g =
  let parent = Array.init (node_count g) Fun.id in
  let rec root v =
    let p = parent.(v) in
    if p = v then v
    else begin
      parent.(v) <- parent.(p);
      root parent.(v)
    end
  in
  let comps = ref (node_count g) in
  Array.iter
    (fun e ->
      let a = root e.src and b = root e.dst in
      if a <> b then begin
        parent.(a) <- b;
        decr comps
      end)
    g.g_edges;
  !comps

let pp ppf g =
  Format.fprintf ppf "graph: %d nodes (%d hosts), %d edges" (node_count g)
    (Array.length (hosts g))
    (edge_count g)
