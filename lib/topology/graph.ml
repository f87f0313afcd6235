type node_kind = Host | Router

type node = { id : int; kind : node_kind; as_id : int }

type edge = { id : int; src : int; dst : int }

type t = {
  g_nodes : node array;
  g_edges : edge array;
  out_adj : edge list array; (* sorted by destination id *)
  in_deg : int array;
  edge_index : (int * int, int) Hashtbl.t; (* (src, dst) -> edge id *)
}

let create ~nodes ~edges =
  let nv = Array.length nodes in
  Array.iteri
    (fun i (n : node) ->
      if n.id <> i then invalid_arg "Graph.create: node id mismatch")
    nodes;
  let edge_index = Hashtbl.create (Array.length edges * 2) in
  let g_edges =
    Array.mapi
      (fun id (src, dst) ->
        if src < 0 || src >= nv || dst < 0 || dst >= nv then
          invalid_arg "Graph.create: edge endpoint out of range";
        if src = dst then invalid_arg "Graph.create: self-loop";
        if Hashtbl.mem edge_index (src, dst) then
          invalid_arg "Graph.create: duplicate edge";
        Hashtbl.add edge_index (src, dst) id;
        { id; src; dst })
      edges
  in
  let out_lists = Array.make nv [] in
  let in_deg = Array.make nv 0 in
  Array.iter
    (fun e ->
      out_lists.(e.src) <- e :: out_lists.(e.src);
      in_deg.(e.dst) <- in_deg.(e.dst) + 1)
    g_edges;
  let out_adj =
    Array.map (fun l -> List.sort (fun a b -> Int.compare a.dst b.dst) l) out_lists
  in
  { g_nodes = nodes; g_edges; out_adj; in_deg; edge_index }

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

let out_edges g i =
  if i < 0 || i >= node_count g then invalid_arg "Graph.out_edges: bad id";
  g.out_adj.(i)

let in_degree g i =
  if i < 0 || i >= node_count g then invalid_arg "Graph.in_degree: bad id";
  g.in_deg.(i)

let out_degree g i = List.length (out_edges g i)

let find_edge g ~src ~dst =
  match Hashtbl.find_opt g.edge_index (src, dst) with
  | Some id -> Some g.g_edges.(id)
  | None -> None

let hosts g =
  Array.of_list
    (Array.to_list g.g_nodes |> List.filter (fun n -> n.kind = Host))

let is_inter_as g eid =
  let e = edge g eid in
  (node g e.src).as_id <> (node g e.dst).as_id

let undirected_components g =
  let nv = node_count g in
  let seen = Array.make nv false in
  (* undirected adjacency built on the fly from out edges of both ends *)
  let rev_adj = Array.make nv [] in
  Array.iter (fun e -> rev_adj.(e.dst) <- e.src :: rev_adj.(e.dst)) g.g_edges;
  let comps = ref 0 in
  for start = 0 to nv - 1 do
    if not seen.(start) then begin
      incr comps;
      let stack = ref [ start ] in
      seen.(start) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            stack := rest;
            List.iter
              (fun e ->
                if not seen.(e.dst) then begin
                  seen.(e.dst) <- true;
                  stack := e.dst :: !stack
                end)
              g.out_adj.(u);
            List.iter
              (fun v ->
                if not seen.(v) then begin
                  seen.(v) <- true;
                  stack := v :: !stack
                end)
              rev_adj.(u)
      done
    end
  done;
  !comps

let pp ppf g =
  Format.fprintf ppf "graph: %d nodes (%d hosts), %d edges" (node_count g)
    (Array.length (hosts g))
    (edge_count g)
