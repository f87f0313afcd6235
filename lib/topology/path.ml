type t = { src : int; dst : int; nodes : int array; edges : int array }

let make ~graph ~nodes =
  let n = Array.length nodes in
  if n < 2 then invalid_arg "Path.make: need at least two nodes";
  let edges =
    Array.init (n - 1) (fun i ->
        match Graph.find_edge graph ~src:nodes.(i) ~dst:nodes.(i + 1) with
        | Some e -> e.Graph.id
        | None -> invalid_arg "Path.make: hop is not an edge")
  in
  { src = nodes.(0); dst = nodes.(n - 1); nodes; edges }

let length p = Array.length p.edges

let mem_edge p eid = Array.exists (fun e -> e = eid) p.edges

let equal p q = p.src = q.src && p.dst = q.dst && p.edges = q.edges
