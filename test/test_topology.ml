(* Tests for graphs, routing matrices, alias reduction, flutter detection,
   generators and the simulated traceroute. Includes the paper's Figure 1
   and Figure 2 example topologies as fixtures. *)

module Graph = Topology.Graph
module Path = Topology.Path
module Routing = Topology.Routing
module Flutter = Topology.Flutter
module Testbed = Topology.Testbed
module Sparse = Linalg.Sparse
module Rng = Nstats.Rng

let mk_nodes ?(hosts = []) ?(as_of = fun _ -> 0) n =
  Array.init n (fun i ->
      { Graph.id = i;
        kind = (if List.mem i hosts then Graph.Host else Graph.Router);
        as_id = as_of i })

(* Figure 1 of the paper: beacon B1 (node 0) with internal nodes and
   destinations D1 D2 D3. Shape: 0 -> 1; 1 -> 2 (D1); 1 -> 3; 3 -> 4 (D2);
   3 -> 5 (D3). After alias reduction there are 5 links: (0-1), (1-2),
   (1-3), (3-4), (3-5). *)
let figure1 () =
  let nodes = mk_nodes ~hosts:[ 0; 2; 4; 5 ] 6 in
  let edges = [| (0, 1); (1, 2); (1, 3); (3, 4); (3, 5) |] in
  let graph = Graph.create ~nodes ~edges in
  { Testbed.graph; beacons = [| 0 |]; destinations = [| 2; 4; 5 |] }

(* --- Graph ---------------------------------------------------------------- *)

let test_graph_basic () =
  let tb = figure1 () in
  let g = tb.Testbed.graph in
  Alcotest.(check int) "nodes" 6 (Graph.node_count g);
  Alcotest.(check int) "edges" 5 (Graph.edge_count g);
  Alcotest.(check int) "out degree of 1" 2 (Graph.out_degree g 1);
  Alcotest.(check int) "in degree of 3" 1 (Graph.in_degree g 3);
  Alcotest.(check int) "hosts" 4 (Array.length (Graph.hosts g));
  Alcotest.(check bool) "edge exists" true (Graph.find_edge g ~src:0 ~dst:1 <> None);
  Alcotest.(check bool) "absent edge" true (Graph.find_edge g ~src:2 ~dst:0 = None)

let test_graph_validation () =
  let nodes = mk_nodes 2 in
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~nodes ~edges:[| (0, 0) |]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.create: duplicate edge")
    (fun () -> ignore (Graph.create ~nodes ~edges:[| (0, 1); (0, 1) |]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.create: edge endpoint out of range") (fun () ->
      ignore (Graph.create ~nodes ~edges:[| (0, 5) |]))

let test_graph_undirected () =
  let nodes = mk_nodes 3 in
  let g = Graph.of_undirected ~nodes ~links:[| (0, 1); (1, 2) |] in
  Alcotest.(check int) "edge count doubles" 4 (Graph.edge_count g);
  let e = Option.get (Graph.find_edge g ~src:0 ~dst:1) in
  let e' = Option.get (Graph.find_edge g ~src:e.Graph.dst ~dst:e.Graph.src) in
  Alcotest.(check (pair int int))
    "reverse edge" (1, 0) (e'.Graph.src, e'.Graph.dst)

let test_graph_inter_as () =
  let nodes = mk_nodes ~as_of:(fun i -> i / 2) 4 in
  let g = Graph.create ~nodes ~edges:[| (0, 1); (1, 2) |] in
  Alcotest.(check bool) "intra" false (Graph.is_inter_as g 0);
  Alcotest.(check bool) "inter" true (Graph.is_inter_as g 1)

let test_graph_components () =
  let nodes = mk_nodes 4 in
  let g = Graph.create ~nodes ~edges:[| (0, 1); (2, 3) |] in
  Alcotest.(check int) "two components" 2 (Graph.undirected_components g);
  let g2 = Graph.create ~nodes ~edges:[| (0, 1); (2, 3); (1, 2) |] in
  Alcotest.(check int) "one component" 1 (Graph.undirected_components g2)

(* --- Path ------------------------------------------------------------------ *)

let test_path_make () =
  let tb = figure1 () in
  let p = Path.make ~graph:tb.Testbed.graph ~nodes:[| 0; 1; 3; 4 |] in
  Alcotest.(check int) "length" 3 (Path.length p);
  Alcotest.(check bool) "mem first edge" true (Path.mem_edge p 0)

let test_path_invalid_hop () =
  let tb = figure1 () in
  Alcotest.check_raises "bad hop" (Invalid_argument "Path.make: hop is not an edge")
    (fun () -> ignore (Path.make ~graph:tb.Testbed.graph ~nodes:[| 0; 3 |]))

(* --- Routing ----------------------------------------------------------------- *)

let test_shortest_path () =
  let tb = figure1 () in
  let p = Option.get (Routing.shortest_path tb.Testbed.graph ~src:0 ~dst:5) in
  Alcotest.(check (array int)) "route" [| 0; 1; 3; 5 |] p.Path.nodes;
  Alcotest.(check bool) "unreachable" true
    (Routing.shortest_path tb.Testbed.graph ~src:2 ~dst:0 = None)

let test_figure1_routing_matrix () =
  (* The paper's example: R is 3x5 with rank 5 impossible; rank(R) = 3. *)
  let tb = figure1 () in
  let red = Testbed.routing tb in
  let r = red.Routing.matrix in
  Alcotest.(check int) "paths" 3 (Sparse.rows r);
  Alcotest.(check int) "links" 5 (Sparse.cols r);
  (* every path crosses the root link's column *)
  let counts = Sparse.column_counts r in
  Alcotest.(check bool) "one column covered by all paths" true
    (Array.exists (fun c -> c = 3) counts);
  Alcotest.(check int) "rank deficient" 3
    (Linalg.Qr.matrix_rank (Sparse.to_dense r))

let test_alias_reduction_chain () =
  (* 0 -> 1 -> 2 -> 3(dest): the three links are indistinguishable and must
     collapse into a single virtual link. *)
  let nodes = mk_nodes ~hosts:[ 0; 3 ] 4 in
  let graph = Graph.create ~nodes ~edges:[| (0, 1); (1, 2); (2, 3) |] in
  let red = Routing.build graph ~beacons:[| 0 |] ~destinations:[| 3 |] in
  Alcotest.(check int) "one virtual link" 1 (Sparse.cols red.Routing.matrix);
  Alcotest.(check int) "grouping three edges" 3
    (Array.length red.Routing.vlinks.(0))

let test_alias_reduction_loss_rate () =
  let nodes = mk_nodes ~hosts:[ 0; 3 ] 4 in
  let graph = Graph.create ~nodes ~edges:[| (0, 1); (1, 2); (2, 3) |] in
  let red = Routing.build graph ~beacons:[| 0 |] ~destinations:[| 3 |] in
  let link_loss _ = 0.1 in
  let combined = Routing.vlink_loss_rate red ~link_loss 0 in
  Alcotest.(check (float 1e-9)) "1 - 0.9^3" (1. -. (0.9 ** 3.)) combined

let test_reduce_columns_distinct_nonzero () =
  let rng = Rng.create 5 in
  let tb = Topology.Waxman.generate rng ~nodes:60 ~hosts:10 () in
  let red = Testbed.routing tb in
  let r = red.Routing.matrix in
  let counts = Sparse.column_counts r in
  Alcotest.(check bool) "no zero column" true (Array.for_all (fun c -> c > 0) counts);
  (* all columns distinct: compare supports pairwise via the transpose *)
  let t = Sparse.transpose r in
  let seen = Hashtbl.create 64 in
  let distinct = ref true in
  for j = 0 to Sparse.rows t - 1 do
    let key = Array.to_list (Sparse.row t j) in
    if Hashtbl.mem seen key then distinct := false;
    Hashtbl.add seen key ()
  done;
  Alcotest.(check bool) "columns distinct" true !distinct

let test_routing_tree_property () =
  (* all paths from one beacon form a tree: any two paths share a prefix *)
  let rng = Rng.create 9 in
  let tb = Topology.Waxman.generate rng ~nodes:50 ~hosts:8 () in
  let paths =
    Routing.paths_between tb.Testbed.graph ~beacons:[| tb.Testbed.beacons.(0) |]
      ~destinations:tb.Testbed.destinations
  in
  Array.iter
    (fun p ->
      Array.iter
        (fun q -> Alcotest.(check bool) "no fluttering in tree" false
            (Flutter.pair_flutters p q))
        paths)
    paths

(* --- Weighted routing ---------------------------------------------------------- *)

let test_dijkstra_matches_bfs_on_unit_weights () =
  let rng = Rng.create 61 in
  let tb = Topology.Waxman.generate rng ~nodes:60 ~hosts:8 () in
  let g = tb.Testbed.graph in
  let b = tb.Testbed.beacons.(0) in
  Array.iter
    (fun d ->
      let bfs_p = Routing.shortest_path g ~src:b ~dst:d in
      let dij_p = Routing.shortest_path_weighted g ~weight:(fun _ -> 1.) ~src:b ~dst:d in
      match (bfs_p, dij_p) with
      | None, None -> ()
      | Some p, Some q ->
          Alcotest.(check int) "same hop count" (Path.length p) (Path.length q)
      | _ -> Alcotest.fail "reachability disagreement")
    tb.Testbed.destinations

let test_dijkstra_prefers_cheap_detour () =
  (* direct edge weight 10 vs two-hop detour of total weight 2 *)
  let nodes = mk_nodes ~hosts:[ 0; 2 ] 3 in
  let g = Graph.create ~nodes ~edges:[| (0, 2); (0, 1); (1, 2) |] in
  let weight e = if e = 0 then 10. else 1. in
  let p = Option.get (Routing.shortest_path_weighted g ~weight ~src:0 ~dst:2) in
  Alcotest.(check (array int)) "takes the detour" [| 0; 1; 2 |] p.Path.nodes;
  (* with unit weights the direct edge wins *)
  let q =
    Option.get (Routing.shortest_path_weighted g ~weight:(fun _ -> 1.) ~src:0 ~dst:2)
  in
  Alcotest.(check (array int)) "direct when uniform" [| 0; 2 |] q.Path.nodes

let test_dijkstra_negative_weight_rejected () =
  let nodes = mk_nodes ~hosts:[ 0; 1 ] 2 in
  let g = Graph.create ~nodes ~edges:[| (0, 1) |] in
  Alcotest.check_raises "negative weight"
    (Invalid_argument "Routing.dijkstra: negative weight") (fun () ->
      ignore (Routing.shortest_path_weighted g ~weight:(fun _ -> -1.) ~src:0 ~dst:1))

let test_weighted_paths_form_tree () =
  let rng = Rng.create 67 in
  let tb = Topology.Waxman.generate rng ~nodes:50 ~hosts:8 () in
  let g = tb.Testbed.graph in
  (* distance-like weights derived deterministically from edge ids *)
  let weight e = 1. +. float_of_int (e mod 7) in
  let paths =
    Routing.paths_between_weighted g ~weight
      ~beacons:[| tb.Testbed.beacons.(0) |] ~destinations:tb.Testbed.destinations
  in
  Alcotest.(check (list (pair int int))) "no fluttering from one beacon" []
    (Flutter.check paths)

(* --- Flutter ------------------------------------------------------------------ *)

(* Three routes on one small mesh. p = 0->1->2->3->4 and q = 5->1->2->3->4
   share the one block 1->2->3->4. q_fluttering = 5->1->6->3->4 shares only
   3->4 with p, but with q it shares 5->1 and 3->4 and takes another way in
   between: the two meet, diverge and meet again. *)
let flutter_fixture () =
  let nodes = mk_nodes ~hosts:[ 0; 5; 4 ] 7 in
  let edges =
    [| (0, 1); (1, 2); (2, 3); (3, 4); (5, 1); (1, 6); (6, 3) |]
  in
  let graph = Graph.create ~nodes ~edges in
  let p = Path.make ~graph ~nodes:[| 0; 1; 2; 3; 4 |] in
  let q = Path.make ~graph ~nodes:[| 5; 1; 2; 3; 4 |] in
  let q_fluttering = Path.make ~graph ~nodes:[| 5; 1; 6; 3; 4 |] in
  (p, q, q_fluttering)

let test_flutter_detection () =
  let p, q, qf = flutter_fixture () in
  Alcotest.(check bool) "contiguous overlap is fine" false (Flutter.pair_flutters p q);
  (* p and qf share edge (3,4) only: single shared link, no flutter *)
  Alcotest.(check bool) "single shared link fine" false (Flutter.pair_flutters p qf);
  (* q and qf share (5,1) and (3,4) but take different middles: flutter *)
  Alcotest.(check bool) "meet-diverge-meet across beacons" true
    (Flutter.pair_flutters q qf)

let test_flutter_meet_diverge_meet () =
  (* p = 0->1->2->3->4 and q = 0->1->2->5->3->4 share 0->1->2 and 3->4 but
     not 2->3: q leaves p at node 2 and rejoins it at node 3 *)
  let nodes = mk_nodes ~hosts:[ 0; 4 ] 6 in
  let edges = [| (0, 1); (1, 2); (2, 3); (3, 4); (2, 5); (5, 3) |] in
  let graph = Graph.create ~nodes ~edges in
  let p = Path.make ~graph ~nodes:[| 0; 1; 2; 3; 4 |] in
  let q = Path.make ~graph ~nodes:[| 0; 1; 2; 5; 3; 4 |] in
  Alcotest.(check bool) "meet-diverge-meet flutters" true (Flutter.pair_flutters p q);
  let kept, removed = Flutter.remove_fluttering [| p; q |] in
  Alcotest.(check int) "one kept" 1 (Array.length kept);
  Alcotest.(check int) "one removed" 1 (Array.length removed);
  Alcotest.(check bool) "keeps the earlier path" true (Path.equal kept.(0) p)

let test_flutter_check_pairs () =
  let nodes = mk_nodes ~hosts:[ 0; 4 ] 6 in
  let edges = [| (0, 1); (1, 2); (2, 3); (3, 4); (2, 5); (5, 3) |] in
  let graph = Graph.create ~nodes ~edges in
  let p = Path.make ~graph ~nodes:[| 0; 1; 2; 3; 4 |] in
  let q = Path.make ~graph ~nodes:[| 0; 1; 2; 5; 3; 4 |] in
  Alcotest.(check (list (pair int int))) "offending pair" [ (0, 1) ]
    (Flutter.check [| p; q |])

(* The greedy order on the complete digraph of 7 nodes. p0 = 0->1->2->3 and
   p1 = 0->1->4->2->3 share 0->1 and 2->3 but not the hops between; so do
   p1 and p2 = 5->1->4->6->2->3, with 1->4 and 2->3; p0 and p2 share only
   2->3. p0 drops p1, and p1, once dropped, drops nothing, so p2 stays. *)
let test_flutter_greedy_order () =
  let graph = Generators.complete_digraph 7 in
  let p0 = Path.make ~graph ~nodes:[| 0; 1; 2; 3 |] in
  let p1 = Path.make ~graph ~nodes:[| 0; 1; 4; 2; 3 |] in
  let p2 = Path.make ~graph ~nodes:[| 5; 1; 4; 6; 2; 3 |] in
  let paths = [| p0; p1; p2 |] in
  Alcotest.(check (list (pair int int))) "offending pairs" [ (0, 1); (1, 2) ]
    (Flutter.check paths);
  let kept, removed = Flutter.remove_fluttering paths in
  Alcotest.(check bool) "keeps p0 and p2" true (kept = [| p0; p2 |]);
  Alcotest.(check bool) "removes p1" true (removed = [| p1 |])

(* --- Generators ------------------------------------------------------------------ *)

let test_tree_gen_shape () =
  let rng = Rng.create 3 in
  let tb = Topology.Tree_gen.generate rng ~nodes:200 ~max_branching:6 () in
  let g = tb.Testbed.graph in
  Alcotest.(check int) "edges = nodes - 1" 199 (Graph.edge_count g);
  Alcotest.(check int) "connected" 1 (Graph.undirected_components g);
  (* branching bound *)
  for v = 0 to Graph.node_count g - 1 do
    Alcotest.(check bool) "branching bound" true (Graph.out_degree g v <= 6)
  done;
  (* destinations are exactly the leaves *)
  Array.iter
    (fun d -> Alcotest.(check int) "leaf has no children" 0 (Graph.out_degree g d))
    tb.Testbed.destinations

let test_tree_gen_all_leaves_reachable () =
  let rng = Rng.create 4 in
  let tb = Topology.Tree_gen.generate rng ~nodes:100 ~max_branching:4 () in
  Array.iter
    (fun d ->
      Alcotest.(check bool) "reachable" true
        (Routing.shortest_path tb.Testbed.graph ~src:0 ~dst:d <> None))
    tb.Testbed.destinations

let test_tree_gen_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "too small"
    (Invalid_argument "Tree_gen.generate: need at least 2 nodes") (fun () ->
      ignore (Topology.Tree_gen.generate rng ~nodes:1 ~max_branching:2 ()))

let test_waxman_connected () =
  let rng = Rng.create 21 in
  let tb = Topology.Waxman.generate rng ~nodes:80 ~hosts:12 () in
  Alcotest.(check int) "connected" 1 (Graph.undirected_components tb.Testbed.graph);
  Alcotest.(check int) "hosts" 12 (Array.length tb.Testbed.beacons)

let test_barabasi_albert_degree_skew () =
  let rng = Rng.create 23 in
  let links = Topology.Barabasi_albert.links rng ~nodes:300 ~m:2 in
  let deg = Array.make 300 0 in
  List.iter
    (fun (u, v) ->
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    links;
  let dmax = Array.fold_left max 0 deg in
  let mean = float_of_int (2 * List.length links) /. 300. in
  Alcotest.(check bool) "hub exists (skewed degrees)" true
    (float_of_int dmax > 4. *. mean);
  Alcotest.(check bool) "all attached" true (Array.for_all (fun d -> d >= 1) deg)

let test_hierarchical_as_structure () =
  let rng = Rng.create 25 in
  let tb =
    Topology.Hierarchical.generate rng ~flavour:Topology.Hierarchical.Top_down
      ~ases:5 ~routers_per_as:6 ~hosts:10
  in
  let g = tb.Testbed.graph in
  Alcotest.(check int) "connected" 1 (Graph.undirected_components g);
  (* AS ids present and within range *)
  let as_ids = Array.map (fun (n : Graph.node) -> n.Graph.as_id) (Graph.nodes g) in
  Alcotest.(check bool) "as ids in range" true
    (Array.for_all (fun a -> a >= 0 && a < 5) as_ids);
  (* there exists at least one inter-AS edge *)
  let inter = ref false in
  for e = 0 to Graph.edge_count g - 1 do
    if Graph.is_inter_as g e then inter := true
  done;
  Alcotest.(check bool) "has inter-AS links" true !inter

let test_hierarchical_bottom_up () =
  let rng = Rng.create 27 in
  let tb =
    Topology.Hierarchical.generate rng ~flavour:Topology.Hierarchical.Bottom_up
      ~ases:4 ~routers_per_as:8 ~hosts:8
  in
  Alcotest.(check int) "connected" 1
    (Graph.undirected_components tb.Testbed.graph)

let test_overlay_planetlab () =
  let rng = Rng.create 29 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:20 () in
  let g = tb.Testbed.graph in
  Alcotest.(check int) "connected" 1 (Graph.undirected_components g);
  Alcotest.(check int) "all hosts are beacons" 20 (Array.length tb.Testbed.beacons);
  (* hosts have exactly one access link each way *)
  Array.iter
    (fun h ->
      Alcotest.(check int) "host out degree" 1 (Graph.out_degree g h);
      Alcotest.(check int) "host in degree" 1 (Graph.in_degree g h))
    tb.Testbed.beacons

let test_overlay_dimes () =
  let rng = Rng.create 31 in
  let tb = Topology.Overlay.dimes_like rng ~hosts:15 in
  Alcotest.(check int) "connected" 1
    (Graph.undirected_components tb.Testbed.graph);
  (* many distinct ASes *)
  let as_set = Hashtbl.create 16 in
  Array.iter
    (fun (n : Graph.node) -> Hashtbl.replace as_set n.Graph.as_id ())
    (Graph.nodes tb.Testbed.graph);
  Alcotest.(check bool) "many ASes" true (Hashtbl.length as_set > 5)

let test_transit_stub_structure () =
  let rng = Rng.create 41 in
  let tb =
    Topology.Transit_stub.generate rng ~transit_domains:3 ~transit_size:5
      ~stubs_per_transit_node:2 ~stub_size:4 ~hosts:12 ()
  in
  let g = tb.Testbed.graph in
  Alcotest.(check int) "connected" 1 (Graph.undirected_components g);
  Alcotest.(check int) "hosts" 12 (Array.length tb.Testbed.beacons);
  (* many ASes: 3 transit + 30 stubs *)
  let as_set = Hashtbl.create 64 in
  Array.iter
    (fun (n : Graph.node) -> Hashtbl.replace as_set n.Graph.as_id ())
    (Graph.nodes g);
  Alcotest.(check bool) "many ASes" true (Hashtbl.length as_set > 10);
  (* host-to-host paths cross AS boundaries (valley shape) *)
  let red = Testbed.routing tb in
  let inter = ref false in
  Array.iter
    (fun (p : Path.t) ->
      Array.iter (fun e -> if Graph.is_inter_as g e then inter := true) p.Path.edges)
    red.Routing.paths;
  Alcotest.(check bool) "paths cross AS boundaries" true !inter

let test_transit_stub_identifiable () =
  let rng = Rng.create 43 in
  let tb = Topology.Transit_stub.generate rng ~hosts:10 () in
  let red = Testbed.routing tb in
  Alcotest.(check bool) "Theorem 1 holds here too" true
    (Core.Identifiability.is_identifiable red.Routing.matrix)

let test_testbed_routing_end_to_end () =
  let rng = Rng.create 33 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:12 () in
  let red = Testbed.routing tb in
  Alcotest.(check bool) "has paths" true (Sparse.rows red.Routing.matrix > 50);
  Alcotest.(check bool) "has links" true (Sparse.cols red.Routing.matrix > 10)

(* --- Heap ----------------------------------------------------------------------- *)

let test_heap_sorted_drain () =
  let h = Topology.Heap.create () in
  let keys = [ 5.; 1.; 4.; 1.5; 0.25; 9.; 2. ] in
  List.iteri (fun i k -> Topology.Heap.push h k i) keys;
  Alcotest.(check int) "size" (List.length keys) (Topology.Heap.size h);
  let rec drain prev acc =
    match Topology.Heap.pop h with
    | None -> List.rev acc
    | Some (k, _) ->
        Alcotest.(check bool) "non-decreasing" true (k >= prev);
        drain k (k :: acc)
  in
  let drained = drain neg_infinity [] in
  Alcotest.(check (list (float 1e-9))) "all keys come back"
    (List.sort Float.compare keys) drained;
  Alcotest.(check bool) "empty after drain" true (Topology.Heap.is_empty h)

let test_heap_interleaved () =
  let h = Topology.Heap.create () in
  Topology.Heap.push h 3. "c";
  Topology.Heap.push h 1. "a";
  (match Topology.Heap.pop h with
  | Some (_, v) -> Alcotest.(check string) "min first" "a" v
  | None -> Alcotest.fail "empty");
  Topology.Heap.push h 0.5 "z";
  (match Topology.Heap.pop h with
  | Some (_, v) -> Alcotest.(check string) "new min" "z" v
  | None -> Alcotest.fail "empty")

(* --- Genutil ---------------------------------------------------------------------- *)

let test_genutil_connect_components () =
  let rng = Rng.create 71 in
  let links = [ (0, 1); (2, 3) ] in
  let connected = Topology.Genutil.connect_components rng 5 links in
  let nodes = mk_nodes 5 in
  let g = Graph.of_undirected ~nodes ~links:(Array.of_list connected) in
  Alcotest.(check int) "now connected" 1 (Graph.undirected_components g)

let test_genutil_dedup () =
  Alcotest.(check (list (pair int int))) "dedup normalizes"
    [ (0, 1); (1, 2) ]
    (Topology.Genutil.dedup_links [ (1, 0); (0, 1); (2, 1); (1, 1) ])

let test_genutil_least_degree () =
  let links = [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  Alcotest.(check (array int)) "picks the isolated and the leaf" [| 4; 3 |]
    (Topology.Genutil.least_degree_nodes 5 links 2)

(* --- Traceroute --------------------------------------------------------------- *)

let test_traceroute_perfect () =
  let tb = figure1 () in
  let paths =
    Routing.paths_between tb.Testbed.graph ~beacons:tb.Testbed.beacons
      ~destinations:tb.Testbed.destinations
  in
  let rng = Rng.create 35 in
  let m =
    Topology.Traceroute.measure rng ~no_response:0. ~multi_iface:0.
      ~resolve_success:1. tb.Testbed.graph paths
  in
  Alcotest.(check int) "same node count" 6 (Graph.node_count m.Topology.Traceroute.graph);
  Alcotest.(check int) "same path count" 3 (Array.length m.Topology.Traceroute.paths);
  Array.iteri
    (fun i p ->
      Alcotest.(check int) "same path length" (Path.length paths.(i))
        (Path.length p))
    m.Topology.Traceroute.paths

let test_traceroute_anonymous_split () =
  (* With every router anonymous, shared routers cannot be merged across
     paths, so the measured topology has more nodes than the truth. *)
  let tb = figure1 () in
  let paths =
    Routing.paths_between tb.Testbed.graph ~beacons:tb.Testbed.beacons
      ~destinations:tb.Testbed.destinations
  in
  let rng = Rng.create 37 in
  let m =
    Topology.Traceroute.measure rng ~no_response:1. ~multi_iface:0.
      ~resolve_success:1. tb.Testbed.graph paths
  in
  Alcotest.(check bool) "more nodes than truth" true
    (Graph.node_count m.Topology.Traceroute.graph > 6);
  (* hosts keep their identity: 4 hosts must survive *)
  Alcotest.(check int) "hosts preserved" 4
    (Array.length (Graph.hosts m.Topology.Traceroute.graph))

let test_traceroute_larger () =
  let rng = Rng.create 39 in
  let tb = Topology.Overlay.planetlab_like rng ~hosts:10 () in
  let paths =
    Routing.paths_between tb.Testbed.graph ~beacons:tb.Testbed.beacons
      ~destinations:tb.Testbed.destinations
  in
  let m = Topology.Traceroute.measure rng tb.Testbed.graph paths in
  Alcotest.(check int) "path count preserved" (Array.length paths)
    (Array.length m.Topology.Traceroute.paths);
  (* every measured path is a valid path of the measured graph by
     construction; routing matrices can be built from it *)
  let red = Routing.reduce m.Topology.Traceroute.graph m.Topology.Traceroute.paths in
  Alcotest.(check bool) "reducible" true (Sparse.cols red.Routing.matrix > 0)

(* --- Properties ------------------------------------------------------------------ *)

let prop_tree_paths_form_tree =
  QCheck.Test.make ~count:20 ~name:"tree generator: beacon paths never flutter"
    QCheck.(int_range 10 120)
    (fun n ->
      let rng = Rng.create n in
      let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
      let paths =
        Routing.paths_between tb.Testbed.graph ~beacons:tb.Testbed.beacons
          ~destinations:tb.Testbed.destinations
      in
      Flutter.check paths = [])

let prop_reduce_keeps_path_semantics =
  QCheck.Test.make ~count:20
    ~name:"alias reduction: path loss equals product over virtual links"
    QCheck.(int_range 30 80)
    (fun n ->
      let rng = Rng.create (n * 7) in
      let tb = Topology.Waxman.generate rng ~nodes:n ~hosts:6 () in
      let red = Testbed.routing tb in
      let g = tb.Testbed.graph in
      (* random per-edge loss; compare path transmission computed over raw
         edges vs over virtual links *)
      let edge_loss = Array.init (Graph.edge_count g) (fun i ->
          0.001 *. float_of_int (i mod 7)) in
      let ok = ref true in
      Array.iteri
        (fun i (p : Path.t) ->
          let direct =
            Array.fold_left (fun acc e -> acc *. (1. -. edge_loss.(e))) 1. p.Path.edges
          in
          let via_vlinks =
            Array.fold_left
              (fun acc j ->
                acc *. (1. -. Routing.vlink_loss_rate red ~link_loss:(fun e -> edge_loss.(e)) j))
              1.
              (Sparse.row red.Routing.matrix i)
          in
          if Float.abs (direct -. via_vlinks) > 1e-9 then ok := false)
        red.Routing.paths;
      !ok)

(* The T.2 walk must give the all-pairs oracle's answers: the offending
   pairs in order, and the same kept and removed paths. *)
let same_as_oracle paths =
  Flutter.check paths = Oracle.Flutter.check paths
  && Flutter.remove_fluttering paths = Oracle.Flutter.remove_fluttering paths

let prop_flutter_walk_on_path_sets =
  QCheck.Test.make ~count:300
    ~name:"flutter walk = all-pairs oracle on path sets"
    Generators.seed_arb
    (fun seed -> same_as_oracle (Generators.random_path_set seed))

let prop_flutter_walk_on_routes =
  QCheck.Test.make ~count:10
    ~name:"flutter walk = all-pairs oracle on BFS and weighted routes"
    QCheck.(int_range 0 600)
    (fun seed ->
      (* the eight generator families, BFS and weighted routes *)
      List.for_all
        (fun family ->
          let tb = Generators.random_testbed ((8 * seed) + family) in
          let g = tb.Testbed.graph
          and beacons = tb.Testbed.beacons
          and destinations = tb.Testbed.destinations in
          same_as_oracle (Routing.paths_between g ~beacons ~destinations)
          && same_as_oracle
               (Routing.paths_between_weighted g
                  ~weight:(fun e -> 1. +. float_of_int (e mod 7))
                  ~beacons ~destinations))
        (List.init 8 Fun.id))

let prop_pair_flutters_oracle =
  QCheck.Test.make ~count:200
    ~name:"pair_flutters = oracle on every ordered pair"
    Generators.seed_arb
    (fun seed ->
      let paths = Generators.random_path_set seed in
      Array.for_all
        (fun p ->
          Array.for_all
            (fun q -> Flutter.pair_flutters p q = Oracle.Flutter.pair_flutters p q)
            paths)
        paths)

(* --- the CSR graph and the edge-id BFS against the list-and-hash-table
   oracle --- *)

(* the eight generator families, then the complete digraph on 3-9 nodes
   with every node a beacon and a destination *)
let oracle_cases seed =
  let k = 3 + (seed mod 7) in
  List.init 8 (fun family ->
      let tb = Generators.random_testbed ((8 * seed) + family) in
      (tb.Testbed.graph, tb.Testbed.beacons, tb.Testbed.destinations))
  @ [ (Generators.complete_digraph k, Array.init k Fun.id, Array.init k Fun.id) ]

let on_oracle_cases ~name ~count check =
  QCheck.Test.make ~count ~name QCheck.(int_range 0 600) (fun seed ->
      List.for_all check (oracle_cases seed))

let tie_weight e = 1. +. float_of_int (e mod 7)

let prop_routes_oracle =
  on_oracle_cases ~count:10 ~name:"paths_between = oracle routes, nodes and edges"
    (fun (g, beacons, destinations) ->
      Routing.paths_between g ~beacons ~destinations
      = Oracle.Routing.paths_between g ~beacons ~destinations)

let prop_weighted_routes_oracle =
  on_oracle_cases ~count:10 ~name:"paths_between_weighted = oracle routes with ties"
    (fun (g, beacons, destinations) ->
      Routing.paths_between_weighted g ~weight:tie_weight ~beacons ~destinations
      = Oracle.Routing.paths_between_weighted g ~weight:tie_weight ~beacons
          ~destinations)

let prop_adjacency_scan =
  on_oracle_cases ~count:5
    ~name:"find_edge = linear scan; out-edges in increasing destination"
    (fun (g, _, _) ->
      let nv = Graph.node_count g and edges = Graph.edges g in
      let csr = Graph.out_edges g in
      let ok = ref true in
      for src = 0 to nv - 1 do
        let slots = List.init (Graph.out_degree g src) (fun k -> csr.start.(src) + k) in
        let out = List.map (fun k -> Graph.edge g csr.id.(k)) slots in
        let scanned =
          List.filter (fun (e : Graph.edge) -> e.src = src) (Array.to_list edges)
        in
        if
          List.map (fun k -> csr.dst.(k)) slots
          <> List.map (fun (e : Graph.edge) -> e.dst) out
          || out <> List.sort (fun (a : Graph.edge) b -> Int.compare a.dst b.dst) scanned
          || Graph.in_degree g src
             <> Array.fold_left
                  (fun n (e : Graph.edge) -> if e.dst = src then n + 1 else n)
                  0 edges
        then ok := false;
        for dst = 0 to nv - 1 do
          let scan =
            Array.find_opt (fun (e : Graph.edge) -> e.src = src && e.dst = dst) edges
          in
          if Graph.find_edge g ~src ~dst <> scan then ok := false
        done
      done;
      !ok && Graph.undirected_components g
             = Oracle.Graph.undirected_components (Oracle.Graph.of_graph g))

let same_reduced (a : Routing.reduced) (b : Routing.reduced) =
  Sparse.equal a.matrix b.matrix
  && a.paths = b.paths
  && a.vlinks = b.vlinks
  && a.edge_vlink = b.edge_vlink

let prop_testbed_routing_oracle =
  QCheck.Test.make ~count:10 ~name:"Testbed.routing = oracle routes, T.2 check, reduce"
    QCheck.(int_range 0 600)
    (fun seed ->
      List.for_all
        (fun family ->
          let tb = Generators.random_testbed ((8 * seed) + family) in
          let g = tb.Testbed.graph in
          let red = Testbed.routing tb in
          let paths =
            Oracle.Routing.paths_between g ~beacons:tb.Testbed.beacons
              ~destinations:tb.Testbed.destinations
          in
          let want =
            Oracle.Routing.reduce g (fst (Oracle.Flutter.remove_fluttering paths))
          in
          same_reduced red want)
        (List.init 8 Fun.id))

(* Path sets that repeat edges (walks) and alias them (a few routes on a
   complete digraph leave many edges with one cover set), with a random
   subset of the routes kept: the flat-array grouping must give the
   list-keyed oracle's columns, groups and rows. *)
let prop_reduce_oracle_on_path_sets =
  QCheck.Test.make ~count:300 ~name:"reduce = list-keyed oracle on path sets"
    Generators.seed_arb
    (fun seed ->
      let g, paths = Generators.random_path_set_on_graph seed in
      let rng = Rng.create (seed + 5) in
      let some = Array.of_list (List.filter (fun _ -> Rng.bool rng 0.7) (Array.to_list paths)) in
      List.for_all
        (fun paths ->
          Array.length paths = 0
          || same_reduced (Routing.reduce g paths) (Oracle.Routing.reduce g paths))
        [ paths; some ])

(* Small edge lists, often out of range, looping or repeated, over nodes
   whose ids are sometimes out of place: the first offending edge names
   the error, as in the oracle. *)
let prop_graph_create_oracle =
  QCheck.Test.make ~count:500 ~name:"Graph.create = oracle on malformed edge lists"
    Generators.seed_arb
    (fun seed ->
      let rng = Rng.create seed in
      let nv = 1 + Rng.int rng 6 in
      let nodes = mk_nodes nv in
      if Rng.bool rng 0.05 then nodes.(Rng.int rng nv) <- { (nodes.(0)) with id = nv };
      let endpoint () =
        if Rng.bool rng 0.1 then Rng.int rng (nv + 2) - 1 else Rng.int rng nv
      in
      let edges = Array.init (Rng.int rng 14) (fun _ -> (endpoint (), endpoint ())) in
      let outcome create summary =
        match create () with
        | g -> Ok (summary g)
        | exception e -> Error (Printexc.to_string e)
      in
      outcome
        (fun () -> Graph.create ~nodes ~edges)
        (fun g ->
          ( Graph.edges g,
            List.init nv (fun v -> (Graph.in_degree g v, Graph.out_degree g v)),
            Graph.undirected_components g ))
      = outcome
          (fun () -> Oracle.Graph.create ~nodes ~edges)
          (fun g ->
            ( g.Oracle.Graph.g_edges,
              List.init nv (fun v ->
                  (Oracle.Graph.in_degree g v, Oracle.Graph.out_degree g v)),
              Oracle.Graph.undirected_components g )))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_tree_paths_form_tree;
      prop_reduce_keeps_path_semantics;
      prop_flutter_walk_on_path_sets;
      prop_flutter_walk_on_routes;
      prop_pair_flutters_oracle;
      prop_routes_oracle;
      prop_weighted_routes_oracle;
      prop_adjacency_scan;
      prop_testbed_routing_oracle;
      prop_reduce_oracle_on_path_sets;
      prop_graph_create_oracle;
    ]

let () =
  Alcotest.run "topology"
    [
      ( "graph",
        [
          Alcotest.test_case "basic" `Quick test_graph_basic;
          Alcotest.test_case "validation" `Quick test_graph_validation;
          Alcotest.test_case "undirected" `Quick test_graph_undirected;
          Alcotest.test_case "inter-AS" `Quick test_graph_inter_as;
          Alcotest.test_case "components" `Quick test_graph_components;
        ] );
      ( "path",
        [
          Alcotest.test_case "make" `Quick test_path_make;
          Alcotest.test_case "invalid hop" `Quick test_path_invalid_hop;
        ] );
      ( "routing",
        [
          Alcotest.test_case "shortest path" `Quick test_shortest_path;
          Alcotest.test_case "figure 1 matrix" `Quick test_figure1_routing_matrix;
          Alcotest.test_case "alias chain collapse" `Quick test_alias_reduction_chain;
          Alcotest.test_case "alias loss rate" `Quick test_alias_reduction_loss_rate;
          Alcotest.test_case "columns distinct and nonzero" `Quick
            test_reduce_columns_distinct_nonzero;
          Alcotest.test_case "beacon tree property" `Quick test_routing_tree_property;
          Alcotest.test_case "dijkstra = bfs on unit weights" `Quick
            test_dijkstra_matches_bfs_on_unit_weights;
          Alcotest.test_case "dijkstra cheap detour" `Quick
            test_dijkstra_prefers_cheap_detour;
          Alcotest.test_case "dijkstra negative weight" `Quick
            test_dijkstra_negative_weight_rejected;
          Alcotest.test_case "weighted beacon tree" `Quick
            test_weighted_paths_form_tree;
        ] );
      ( "flutter",
        [
          Alcotest.test_case "detection basics" `Quick test_flutter_detection;
          Alcotest.test_case "meet-diverge-meet" `Quick test_flutter_meet_diverge_meet;
          Alcotest.test_case "check pairs" `Quick test_flutter_check_pairs;
          Alcotest.test_case "greedy order" `Quick test_flutter_greedy_order;
        ] );
      ( "generators",
        [
          Alcotest.test_case "tree shape" `Quick test_tree_gen_shape;
          Alcotest.test_case "tree reachability" `Quick test_tree_gen_all_leaves_reachable;
          Alcotest.test_case "tree invalid" `Quick test_tree_gen_invalid;
          Alcotest.test_case "waxman connected" `Quick test_waxman_connected;
          Alcotest.test_case "BA degree skew" `Quick test_barabasi_albert_degree_skew;
          Alcotest.test_case "hierarchical top-down" `Quick test_hierarchical_as_structure;
          Alcotest.test_case "hierarchical bottom-up" `Quick test_hierarchical_bottom_up;
          Alcotest.test_case "planetlab-like overlay" `Quick test_overlay_planetlab;
          Alcotest.test_case "dimes-like overlay" `Quick test_overlay_dimes;
          Alcotest.test_case "transit-stub structure" `Quick
            test_transit_stub_structure;
          Alcotest.test_case "transit-stub identifiable" `Quick
            test_transit_stub_identifiable;
          Alcotest.test_case "testbed routing" `Quick test_testbed_routing_end_to_end;
        ] );
      ( "heap",
        [
          Alcotest.test_case "sorted drain" `Quick test_heap_sorted_drain;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
        ] );
      ( "genutil",
        [
          Alcotest.test_case "connect components" `Quick test_genutil_connect_components;
          Alcotest.test_case "dedup" `Quick test_genutil_dedup;
          Alcotest.test_case "least degree" `Quick test_genutil_least_degree;
        ] );
      ( "traceroute",
        [
          Alcotest.test_case "perfect measurement" `Quick test_traceroute_perfect;
          Alcotest.test_case "anonymous routers split" `Quick
            test_traceroute_anonymous_split;
          Alcotest.test_case "larger overlay" `Quick test_traceroute_larger;
        ] );
      ("properties", properties);
    ]
