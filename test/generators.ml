(* Shared qcheck generators and bit-level equality helpers for the test
   suites. Linked into every test executable (no top-level effects):
   keep construction here, assertions in the suites. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Snapshot = Netsim.Snapshot
module Simulator = Netsim.Simulator

(* --- bit-level equality -------------------------------------------------- *)

let bits_equal a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let vec_bits_equal v1 v2 =
  Array.length v1 = Array.length v2 && Array.for_all2 bits_equal v1 v2

let matrix_bits_equal m1 m2 =
  Matrix.rows m1 = Matrix.rows m2
  && Matrix.cols m1 = Matrix.cols m2
  && begin
       let ok = ref true in
       for i = 0 to Matrix.rows m1 - 1 do
         for j = 0 to Matrix.cols m1 - 1 do
           if not (bits_equal (Matrix.get m1 i j) (Matrix.get m2 i j)) then
             ok := false
         done
       done;
       !ok
     end

(* --- random problem instances ------------------------------------------- *)

let seed_arb = QCheck.int_range 1 5000
(** The common "seed drives everything" qcheck input. *)

(* Random tree topology + a simulated campaign: 12 snapshots, learn on
   the first 11, diagnose the last. [random_tree_campaign] keeps the
   reduced routing, which the tree-aware estimators need. *)
let random_tree_campaign seed =
  let rng = Rng.create seed in
  let n = 30 + (seed mod 120) in
  let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let config = Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated in
  let run = Simulator.run rng config red.Topology.Routing.matrix ~count:12 in
  let y_learn, target = Simulator.split_learning run ~learning:11 in
  (red, y_learn, target)

let random_tree_trial seed =
  let red, y_learn, target = random_tree_campaign seed in
  (red.Topology.Routing.matrix, y_learn, target)

(* Random tree (odd seeds: Waxman mesh) + synthetic variances and log
   measurements; for linear-algebraic identities where no simulator
   campaign is needed. *)
let random_instance seed =
  let rng = Rng.create seed in
  let tb =
    if seed mod 2 = 0 then
      Topology.Tree_gen.generate rng ~nodes:(30 + (seed mod 80)) ~max_branching:5 ()
    else Topology.Waxman.generate rng ~nodes:40 ~hosts:(5 + (seed mod 5)) ()
  in
  let r = (Topology.Testbed.routing tb).Topology.Routing.matrix in
  let nc = Sparse.cols r and np = Sparse.rows r in
  let variances = Array.init nc (fun _ -> Rng.uniform rng 1e-6 1e-2) in
  let y = Matrix.init (5 + (seed mod 7)) np (fun _ _ -> -.Rng.uniform rng 0. 0.5) in
  (r, variances, y)

(* A testbed from each topology generator in turn (seed mod 8 picks the
   family), at sizes small enough for brute-force oracles. *)
let random_testbed seed =
  let rng = Rng.create seed in
  let hosts = 4 + (seed mod 5) in
  match seed mod 8 with
  | 0 ->
      Topology.Tree_gen.generate rng ~nodes:(30 + (seed mod 60))
        ~max_branching:5 ()
  | 1 -> Topology.Waxman.generate rng ~nodes:40 ~hosts ()
  | 2 -> Topology.Barabasi_albert.generate rng ~nodes:40 ~hosts
  | 3 ->
      Topology.Hierarchical.generate rng
        ~flavour:Topology.Hierarchical.Top_down ~ases:3 ~routers_per_as:6 ~hosts
  | 4 ->
      Topology.Hierarchical.generate rng
        ~flavour:Topology.Hierarchical.Bottom_up ~ases:3 ~routers_per_as:6 ~hosts
  | 5 -> Topology.Overlay.planetlab_like rng ~hosts ()
  | 6 -> Topology.Transit_stub.generate rng ~hosts ()
  | _ -> Topology.Overlay.dimes_like rng ~hosts

(* The routing matrix of [random_testbed seed]. *)
let random_routing seed =
  (Topology.Testbed.routing (random_testbed seed)).Topology.Routing.matrix

(* The complete digraph on [n] routers: an edge for every ordered pair of
   distinct nodes. *)
let complete_digraph n =
  Topology.Graph.create
    ~nodes:
      (Array.init n (fun id ->
           { Topology.Graph.id; kind = Topology.Graph.Router; as_id = 0 }))
    ~edges:
      (* node u's n-1 edges, skipping u itself *)
      (Array.init (n * (n - 1)) (fun k ->
           let u = k / (n - 1) and v = k mod (n - 1) in
           (u, if v < u then v else v + 1)))

(* A path set for the T.2 walk, and the graph it runs on: 2-41 routes on
   a complete digraph of 4-9 nodes. About half the sets hold simple
   routes; the others hold walks of up to 8 hops, which often cross an
   edge more than once. *)
let random_path_set_on_graph seed =
  let rng = Rng.create seed in
  let n = 4 + Rng.int rng 6 in
  let graph = complete_digraph n in
  let walks = Rng.bool rng 0.5 in
  let route () =
    if walks then begin
      let nodes = Array.make (2 + Rng.int rng 8) (Rng.int rng n) in
      for k = 1 to Array.length nodes - 1 do
        (* any node but the current one *)
        nodes.(k) <- (nodes.(k - 1) + 1 + Rng.int rng (n - 1)) mod n
      done;
      nodes
    end
    else Rng.sample_without_replacement rng (2 + Rng.int rng (n - 1)) n
  in
  ( graph,
    Array.init (2 + Rng.int rng 40) (fun _ ->
        Topology.Path.make ~graph ~nodes:(route ())) )

let random_path_set seed = snd (random_path_set_on_graph seed)

(* [r] with a seeded ~fifth of its rows emptied (a path whose links all
   left the system), for kernels that must skip empty rows. *)
let with_empty_rows seed r =
  let rng = Rng.create (seed + 3) in
  Sparse.create ~cols:(Sparse.cols r)
    (Array.init (Sparse.rows r) (fun i ->
         if Rng.bool rng 0.2 then [||] else Sparse.row r i))

(* Random well-conditioned dense tall matrix for QR-level properties. *)
let random_dense seed =
  let rng = Rng.create seed in
  let m = 10 + (seed mod 40) in
  let n = 3 + (seed mod (max 1 (m - 3))) in
  Matrix.init m n (fun _ _ -> Rng.uniform rng (-2.) 2.)

(* Random fault specs for chaos properties: seeds drive every clause, so
   the same qcheck seed reproduces the same fault schedule. *)
let random_fault_spec seed =
  let rng = Rng.create (seed * 2 + 1) in
  let p rng scale = if Rng.bool rng 0.5 then Rng.uniform rng 0. scale else 0. in
  let clauses =
    [
      Printf.sprintf "seed=%d" (1 + (seed mod 1000));
      Printf.sprintf "drop=%g" (p rng 0.2);
      Printf.sprintf "miss=%g" (p rng 0.1);
      Printf.sprintf "nan=%g" (p rng 0.05);
      Printf.sprintf "oor=%g" (p rng 0.05);
      Printf.sprintf "neg=%g" (p rng 0.05);
      Printf.sprintf "dup=%g" (p rng 0.2);
    ]
    @ (if Rng.bool rng 0.5 then
         [ Printf.sprintf "churn=%d@%g" (1 + (seed mod 3)) (Rng.uniform rng 0.3 0.9) ]
       else [])
    @ if Rng.bool rng 0.5 then [ Printf.sprintf "route_shift=%g" (Rng.uniform rng 0.2 0.8) ]
      else []
  in
  let spec = String.concat "," clauses in
  match Netsim.Faults.parse spec with
  | Ok t -> t
  | Error msg -> failwith (Printf.sprintf "generator produced bad spec %S: %s" spec msg)
