module Rng = Nstats.Rng

let links rng ~nodes ~m =
  if m < 1 then invalid_arg "Barabasi_albert.links: m < 1";
  if nodes <= m then invalid_arg "Barabasi_albert.links: nodes <= m";
  (* seed: a path on m+1 nodes so every seed node has positive degree *)
  let acc = ref [] in
  let endpoints = ref [] in
  (* [endpoints] lists each link endpoint once; sampling it uniformly is
     sampling nodes proportionally to degree. *)
  for v = 1 to m do
    acc := (v - 1, v) :: !acc;
    endpoints := (v - 1) :: v :: !endpoints
  done;
  let endpoint_array = ref (Array.of_list !endpoints) in
  for v = m + 1 to nodes - 1 do
    let chosen = Hashtbl.create m in
    let draws = ref 0 in
    while Hashtbl.length chosen < m && !draws < 10000 do
      incr draws;
      let u = Rng.choose rng !endpoint_array in
      if u <> v then Hashtbl.replace chosen u ()
    done;
    let new_eps = ref [] in
    Hashtbl.iter
      (fun u () ->
        acc := (u, v) :: !acc;
        new_eps := u :: v :: !new_eps)
      chosen;
    endpoint_array := Array.append !endpoint_array (Array.of_list !new_eps)
  done;
  Genutil.dedup_links !acc

let generate rng ~nodes ~hosts =
  if hosts < 2 || hosts > nodes then
    invalid_arg "Barabasi_albert.generate: bad host count";
  let lks = links rng ~nodes ~m:2 in
  let host_ids = Genutil.least_degree_nodes nodes lks hosts in
  let node_array = Genutil.make_nodes ~host_ids ~as_of:(fun _ -> 0) nodes in
  let graph = Graph.of_undirected ~nodes:node_array ~links:(Array.of_list lks) in
  { Testbed.graph; beacons = host_ids; destinations = host_ids }
