module Rng = Nstats.Rng

(* Flat spatial router mesh grouped into ASes by grid cell (the bottom-up
   construction), sized so that covered links far outnumber hosts. *)
let clustered_core rng ~ases ~routers =
  let pts = Genutil.unit_square_points rng routers in
  let l = sqrt 2. in
  let links = ref [] in
  for i = 0 to routers - 1 do
    for j = i + 1 to routers - 1 do
      let d = Genutil.euclid pts.(i) pts.(j) in
      if Rng.bool rng (0.25 *. exp (-.d /. (0.12 *. l))) then links := (i, j) :: !links
    done
  done;
  let links = Genutil.connect_components rng routers !links in
  let side = int_of_float (Float.ceil (sqrt (float_of_int ases))) in
  let as_of r =
    let x, y = pts.(r) in
    let cx = min (side - 1) (int_of_float (float_of_int side *. x)) in
    let cy = min (side - 1) (int_of_float (float_of_int side *. y)) in
    ((cy * side) + cx) mod ases
  in
  (links, as_of)

let attach_hosts rng ~core ~hosts ~core_links ~as_of =
  let attach = Rng.sample_without_replacement rng hosts core in
  let host_ids = Array.init hosts (fun h -> core + h) in
  let access = Array.to_list (Array.mapi (fun h r -> (r, core + h)) attach) in
  let n = core + hosts in
  let as_of_node i = if i < core then as_of i else as_of attach.(i - core) in
  let node_array = Genutil.make_nodes ~host_ids ~as_of:as_of_node n in
  let graph =
    Graph.of_undirected ~nodes:node_array
      ~links:(Array.of_list (core_links @ access))
  in
  { Testbed.graph; beacons = host_ids; destinations = host_ids }

let planetlab_like rng ~hosts ?ases ?(routers_per_as = 15) () =
  if hosts < 2 then invalid_arg "Overlay.planetlab_like: need at least 2 hosts";
  let ases = Option.value ases ~default:(2 * hosts) in
  if ases < 1 || routers_per_as < 1 then
    invalid_arg "Overlay.planetlab_like: bad core shape";
  let routers = ases * routers_per_as in
  if hosts > routers then invalid_arg "Overlay.planetlab_like: more hosts than routers";
  let core_links, as_of = clustered_core rng ~ases ~routers in
  attach_hosts rng ~core:routers ~hosts ~core_links ~as_of

let dimes_like rng ~hosts =
  if hosts < 2 then invalid_arg "Overlay.dimes_like: need at least 2 hosts";
  let core = 20 * hosts in
  let lks = Barabasi_albert.links rng ~nodes:core ~m:2 in
  (* many small ASes: partition the core by id blocks of ~5 routers, which
     tracks attachment order and hence loosely the degree hierarchy *)
  let as_size = 5 in
  let as_of r = r / as_size in
  (* hosts attach to low-degree core nodes (commercial edge) *)
  let candidates = Genutil.least_degree_nodes core lks (min core (2 * hosts)) in
  let attach = Array.init hosts (fun h -> candidates.(h mod Array.length candidates)) in
  let host_ids = Array.init hosts (fun h -> core + h) in
  let access = Array.to_list (Array.mapi (fun h r -> (r, core + h)) attach) in
  let n = core + hosts in
  let as_of_node i = if i < core then as_of i else as_of attach.(i - core) in
  let node_array = Genutil.make_nodes ~host_ids ~as_of:as_of_node n in
  let graph =
    Graph.of_undirected ~nodes:node_array ~links:(Array.of_list (lks @ access))
  in
  { Testbed.graph; beacons = host_ids; destinations = host_ids }
