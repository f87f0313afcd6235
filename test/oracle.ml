(* The materialized-A Phase-1 solve, kept as the test oracle for the
   library's estimators, which never form A: the least-squares solution
   of Σ̂* = A v (eq. 8) over an explicit augmented matrix (Definition 1,
   Augmented.build) and an explicit Σ̂* (eq. 7, Covariance.sigma_star),
   through the sparse normal equations or, as in the paper, a dense
   Householder QR.

   The default stays the regularized normal equations: the drop-negative
   rule can cost A column rank (on test_estimators' 80-node tree, seed
   11, 25 snapshots, it leaves rank 78 of 79), and Qr.solve raises on
   such a system. *)

module Sparse = Linalg.Sparse
module Qr = Linalg.Qr

type method_ = Normal_equations | Dense_qr

type options = { method_ : method_; drop_negative : bool; clamp : bool }

let default_options =
  { method_ = Normal_equations; drop_negative = true; clamp = true }

let solve ?(options = default_options) ?jobs ~a ~sigma_star () =
  if Array.length sigma_star <> Sparse.rows a then
    invalid_arg "Variance_estimator.solve: rhs length mismatch";
  let a, rhs =
    if options.drop_negative then begin
      let keep = ref [] in
      Array.iteri (fun k s -> if s >= 0. then keep := k :: !keep) sigma_star;
      let idx = Array.of_list (List.rev !keep) in
      (Sparse.select_rows a idx, Array.map (fun k -> sigma_star.(k)) idx)
    end
    else (a, sigma_star)
  in
  let v =
    match options.method_ with
    | Normal_equations -> Sparse.least_squares ?jobs a rhs
    | Dense_qr -> Qr.solve (Sparse.to_dense a) rhs
  in
  if options.clamp then Array.map (fun x -> Float.max 0. x) v else v

(* [solve] over the A and Σ̂* built from a routing matrix and a snapshot
   matrix *)
let estimate ?options ~r ~y () =
  solve ?options ~a:(Core.Augmented.build r)
    ~sigma_star:(Core.Covariance.sigma_star y) ()

(* The dense left-looking Cholesky factorization, kept as the oracle of
   the library's sparse kernel: on inputs without -0.0 the sparse kernel
   must reproduce its factor, its solutions and its Not_positive_definite
   outcome bit for bit, and its ordered solve must reproduce
   [solve_ordered]. *)
module Cholesky = struct
  module Matrix = Linalg.Matrix

  exception Not_positive_definite = Linalg.Cholesky.Not_positive_definite

  type t = { n : int; l : Matrix.t }

  (* The factorization works on plain rows: going through Matrix.get in the
     O(n^3) inner loop costs an order of magnitude on the ~1000-link systems
     the tomography solver produces. *)
  let factorize m =
    let n = Matrix.rows m in
    if n <> Matrix.cols m then invalid_arg "Cholesky.factorize: not square";
    let l = Array.init n (fun i -> Array.init n (fun j -> Matrix.get m i j)) in
    for j = 0 to n - 1 do
      let lj = l.(j) in
      let s = ref lj.(j) in
      for k = 0 to j - 1 do
        let ljk = lj.(k) in
        s := !s -. (ljk *. ljk)
      done;
      if !s <= 0. || Float.is_nan !s then raise Not_positive_definite;
      let d = sqrt !s in
      lj.(j) <- d;
      for i = j + 1 to n - 1 do
        let li = l.(i) in
        let s = ref li.(j) in
        for k = 0 to j - 1 do
          s := !s -. (li.(k) *. lj.(k))
        done;
        li.(j) <- !s /. d
      done
    done;
    let lower = Matrix.init n n (fun i j -> if j <= i then l.(i).(j) else 0.) in
    { n; l = lower }

  let factorize_regularized ?(ridge = 1e-10) m =
    let n = Matrix.rows m in
    let mean_diag =
      if n = 0 then 0.
      else begin
        let s = ref 0. in
        for i = 0 to n - 1 do
          s := !s +. Float.abs (Matrix.get m i i)
        done;
        !s /. float_of_int n
      end
    in
    let base = if mean_diag > 0. then mean_diag else 1. in
    let rec attempt r =
      let shifted =
        if r = 0. then m
        else Matrix.init n n (fun i j ->
                 if i = j then Matrix.get m i j +. (r *. base) else Matrix.get m i j)
      in
      match factorize shifted with
      | f -> f
      | exception Not_positive_definite ->
          if r = 0. then attempt ridge
          else if r > 1e-2 then raise Not_positive_definite
          else attempt (r *. 10.)
    in
    attempt 0.

  let lower f = Matrix.copy f.l

  let solve_vec f b =
    if Array.length b <> f.n then invalid_arg "Cholesky.solve_vec: dimension mismatch";
    let y = Array.make f.n 0. in
    for i = 0 to f.n - 1 do
      let s = ref (Array.unsafe_get b i) in
      for k = 0 to i - 1 do
        s := !s -. (Matrix.get f.l i k *. Array.unsafe_get y k)
      done;
      Array.unsafe_set y i (!s /. Matrix.get f.l i i)
    done;
    let x = Array.make f.n 0. in
    for i = f.n - 1 downto 0 do
      let s = ref (Array.unsafe_get y i) in
      for k = i + 1 to f.n - 1 do
        s := !s -. (Matrix.get f.l k i *. Array.unsafe_get x k)
      done;
      Array.unsafe_set x i (!s /. Matrix.get f.l i i)
    done;
    x

  (* The regularized solve of P m Pᵀ for P b, scattered back through P,
     where P sorts the rows by their off-diagonal nonzeros, ascending,
     ties by the lower index. The order is read off the dense matrix,
     independently of the library's sparse one. *)
  let solve_ordered m b =
    let n = Matrix.rows m in
    let degree =
      Array.init n (fun i ->
          List.length
            (List.filter
               (fun j -> j <> i && Matrix.get m i j <> 0.)
               (List.init n Fun.id)))
    in
    let perm =
      Array.of_list
        (List.stable_sort
           (fun i j -> compare degree.(i) degree.(j))
           (List.init n Fun.id))
    in
    let pm = Matrix.init n n (fun a c -> Matrix.get m perm.(a) perm.(c)) in
    let x =
      solve_vec (factorize_regularized pm) (Array.map (fun i -> b.(i)) perm)
    in
    let out = Array.make n 0. in
    Array.iteri (fun a i -> out.(i) <- x.(a)) perm;
    out
end

(* The all-pairs check of Assumption T.2, kept as the oracle of the
   library's edge-indexed walk ([Topology.Flutter]): every pair [i < j]
   is tested, each through a hash table and two lists, and the greedy
   removal lets only a kept path drop later ones. The walk must give
   exactly its answers, also on routes that repeat an edge. *)
module Flutter = struct
  module Path = Topology.Path

  let shared_subsequence p q =
    let in_q = Hashtbl.create 16 in
    Array.iter (fun e -> Hashtbl.replace in_q e ()) q.Path.edges;
    let hits = ref [] in
    Array.iteri
      (fun i e -> if Hashtbl.mem in_q e then hits := (i, e) :: !hits)
      p.Path.edges;
    List.rev !hits

  let contiguous indices =
    let rec check = function
      | a :: (b :: _ as rest) -> b = a + 1 && check rest
      | [ _ ] | [] -> true
    in
    check indices

  let pair_flutters p q =
    let sp = shared_subsequence p q in
    if List.length sp <= 1 then false
    else begin
      let sq = shared_subsequence q p in
      let idx_p = List.map fst sp and idx_q = List.map fst sq in
      let seq_p = List.map snd sp and seq_q = List.map snd sq in
      not (contiguous idx_p && contiguous idx_q && seq_p = seq_q)
    end

  let check paths =
    let n = Array.length paths in
    let offending = ref [] in
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        if pair_flutters paths.(i) paths.(j) then offending := (i, j) :: !offending
      done
    done;
    List.rev !offending

  let remove_fluttering paths =
    let n = Array.length paths in
    let dropped = Array.make n false in
    for i = 0 to n - 1 do
      if not dropped.(i) then
        for j = i + 1 to n - 1 do
          if (not dropped.(j)) && pair_flutters paths.(i) paths.(j) then
            dropped.(j) <- true
        done
    done;
    let kept = ref [] and removed = ref [] in
    for i = n - 1 downto 0 do
      if dropped.(i) then removed := paths.(i) :: !removed
      else kept := paths.(i) :: !kept
    done;
    (Array.of_list !kept, Array.of_list !removed)
end

(* The testbed and measurement parsers as they were before the byte
   scanner: each line split into a list of tokens. Kept as the oracle of
   [Topology.Serial] and [Netsim.Trace_io]: on any input both must
   return the same value or raise the same exception with the same
   message. [Serial.parse ~where] takes the line locator the library's
   [load] and [of_string] now share ([Printf.sprintf "%s:%d" path]). *)
module Serial = struct
  module Graph = Topology.Graph
  module Testbed = Topology.Testbed

  let parse ~where s =
    let fail_line lineno msg =
      failwith (Printf.sprintf "%s: %s" (where lineno) msg)
    in
    let lines = String.split_on_char '\n' s in
    let nodes = ref [] and edges = ref [] in
    let beacons = ref [] and dests = ref [] in
    let header_seen = ref false in
    List.iteri
      (fun idx raw ->
        let lineno = idx + 1 in
        let line = String.trim raw in
        if line = "" || line.[0] = '#' then ()
        else begin
          match String.split_on_char ' ' line |> List.filter (fun w -> w <> "") with
          | [ "netloss-testbed"; "1" ] -> header_seen := true
          | [ "node"; id; kind; as_id ] ->
              let kind =
                match kind with
                | "host" -> Graph.Host
                | "router" -> Graph.Router
                | _ -> fail_line lineno "unknown node kind"
              in
              (try
                 nodes :=
                   { Graph.id = int_of_string id; kind; as_id = int_of_string as_id }
                   :: !nodes
               with Failure _ -> fail_line lineno "bad node numbers")
          | [ "edge"; src; dst ] -> (
              try edges := (int_of_string src, int_of_string dst) :: !edges
              with Failure _ -> fail_line lineno "bad edge numbers")
          | [ "beacon"; id ] -> (
              try beacons := int_of_string id :: !beacons
              with Failure _ -> fail_line lineno "bad beacon id")
          | [ "dest"; id ] -> (
              try dests := int_of_string id :: !dests
              with Failure _ -> fail_line lineno "bad destination id")
          | _ -> fail_line lineno ("unrecognized line: " ^ line)
        end)
      lines;
    if not !header_seen then failwith "missing netloss-testbed header";
    let node_list =
      List.sort (fun (a : Graph.node) b -> Int.compare a.Graph.id b.Graph.id) !nodes
    in
    let node_array = Array.of_list node_list in
    Array.iteri
      (fun i (n : Graph.node) ->
        if n.Graph.id <> i then failwith "node ids are not dense from 0")
      node_array;
    let graph =
      Graph.create ~nodes:node_array ~edges:(Array.of_list (List.rev !edges))
    in
    let t =
      { Testbed.graph;
        beacons = Array.of_list (List.rev !beacons);
        destinations = Array.of_list (List.rev !dests) }
    in
    Testbed.validate t;
    t
end

module Trace_io = struct
  module Matrix = Linalg.Matrix

  let of_string ?(path = "<string>") ?(strict = true) s =
    let fail_line n fmt =
      Printf.ksprintf (fun msg -> failwith (Printf.sprintf "%s:%d: %s" path n msg)) fmt
    in
    let lines =
      String.split_on_char '\n' s
      |> List.mapi (fun i l -> (i + 1, String.trim l))
      |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
    in
    match lines with
    | [] -> failwith (Printf.sprintf "%s: empty measurement file" path)
    | (hline, header) :: rows -> (
        match String.split_on_char ' ' header |> List.filter (fun w -> w <> "") with
        | [ "netloss-measurements"; "1"; m; np ] ->
            let parse_int what s =
              match int_of_string_opt s with
              | Some v when v >= 0 -> v
              | _ -> fail_line hline "bad %s %S in header" what s
            in
            let m = parse_int "snapshot count" m
            and np = parse_int "path count" np in
            if List.length rows <> m then
              fail_line hline "header promises %d snapshot rows, file has %d" m
                (List.length rows);
            let parse_row (n, line) =
              let cells =
                String.split_on_char ' ' line |> List.filter (fun w -> w <> "")
              in
              let got = List.length cells in
              if got <> np then fail_line n "expected %d columns, got %d" np got;
              Array.of_list
                (List.map
                   (fun w ->
                     match float_of_string_opt w with
                     | Some x ->
                         if strict then begin
                           if Float.is_nan x then
                             fail_line n "missing measurement (NaN) %S" w
                           else if not (Float.is_finite x) then
                             fail_line n "non-finite measurement %S" w
                           else if x > 0. then
                             fail_line n
                               "measurement %S is a positive log success rate \
                                (success rate > 1)"
                               w
                         end;
                         x
                     | None -> fail_line n "bad measurement %S" w)
                   cells)
            in
            let data = Array.of_list (List.map parse_row rows) in
            Matrix.init m np (fun l i -> data.(l).(i))
        | _ ->
            fail_line hline
              "missing \"netloss-measurements 1 <snapshots> <paths>\" header")
end

(* The graph as it was before its CSR adjacency: out-edge lists sorted
   per node and a hash table keyed on (src, dst). Kept as the oracle of
   [Topology.Graph]'s construction (the same verdict on malformed edge
   lists), its edge lookup and its components. [of_graph] rebuilds a
   library graph this way. *)
module Graph = struct
  module G = Topology.Graph

  type t = {
    g_nodes : G.node array;
    g_edges : G.edge array;
    out_adj : G.edge list array; (* sorted by destination id *)
    in_deg : int array;
    edge_index : (int * int, int) Hashtbl.t; (* (src, dst) -> edge id *)
  }

  let create ~nodes ~edges =
    let nv = Array.length nodes in
    Array.iteri
      (fun i (n : G.node) ->
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
          { G.id; src; dst })
        edges
    in
    let out_lists = Array.make nv [] in
    let in_deg = Array.make nv 0 in
    Array.iter
      (fun (e : G.edge) ->
        out_lists.(e.src) <- e :: out_lists.(e.src);
        in_deg.(e.dst) <- in_deg.(e.dst) + 1)
      g_edges;
    let out_adj =
      Array.map
        (fun l -> List.sort (fun (a : G.edge) b -> Int.compare a.dst b.dst) l)
        out_lists
    in
    { g_nodes = nodes; g_edges; out_adj; in_deg; edge_index }

  let of_graph g =
    create ~nodes:(G.nodes g)
      ~edges:(Array.map (fun (e : G.edge) -> (e.src, e.dst)) (G.edges g))

  let node_count g = Array.length g.g_nodes

  let edge g i = g.g_edges.(i)

  let out_edges g i = g.out_adj.(i)

  let in_degree g i = g.in_deg.(i)

  let out_degree g i = List.length (out_edges g i)

  let find_edge g ~src ~dst =
    match Hashtbl.find_opt g.edge_index (src, dst) with
    | Some id -> Some g.g_edges.(id)
    | None -> None

  let undirected_components g =
    let nv = node_count g in
    let seen = Array.make nv false in
    let rev_adj = Array.make nv [] in
    Array.iter
      (fun (e : G.edge) -> rev_adj.(e.dst) <- e.src :: rev_adj.(e.dst))
      g.g_edges;
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
                (fun (e : G.edge) ->
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
end

(* Routing as it was before the BFS emitted edge ids: BFS and Dijkstra
   over [Graph]'s lists with [int option] predecessors, and each route
   built from its node sequence by looking every hop up in the hash
   table (the old [Path.make]). Kept as the oracle of
   [Topology.Routing]: the same routes, nodes and edges, and the same
   reduced system. *)
module Routing = struct
  module Path = Topology.Path

  let make_path ~graph ~nodes =
    let n = Array.length nodes in
    if n < 2 then invalid_arg "Path.make: need at least two nodes";
    let edges =
      Array.init (n - 1) (fun i ->
          match Graph.find_edge graph ~src:nodes.(i) ~dst:nodes.(i + 1) with
          | Some e -> e.Topology.Graph.id
          | None -> invalid_arg "Path.make: hop is not an edge")
    in
    { Path.src = nodes.(0); dst = nodes.(n - 1); nodes; edges }

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
        (fun (e : Topology.Graph.edge) ->
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
                  collect e.Topology.Graph.src (node :: acc)
            end
          in
          let nodes = Array.of_list (collect dst []) in
          Some (make_path ~graph ~nodes)
    end

  let dijkstra graph ~weight src =
    let nv = Graph.node_count graph in
    if src < 0 || src >= nv then invalid_arg "Routing.dijkstra: bad source";
    let dist = Array.make nv infinity in
    let pred = Array.make nv None in
    let final = Array.make nv false in
    let heap = Topology.Heap.create () in
    dist.(src) <- 0.;
    Topology.Heap.push heap 0. src;
    let rec drain () =
      match Topology.Heap.pop heap with
      | None -> ()
      | Some (d, u) ->
          if not final.(u) then begin
            if d <= dist.(u) then begin
              final.(u) <- true;
              List.iter
                (fun (e : Topology.Graph.edge) ->
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
                              u < pe.Topology.Graph.src)
                  in
                  if (not final.(e.dst)) && better then begin
                    dist.(e.dst) <- nd;
                    pred.(e.dst) <- Some e.id;
                    Topology.Heap.push heap nd e.dst
                  end)
                (Graph.out_edges graph u)
            end;
            drain ()
          end
          else drain ()
    in
    drain ();
    pred

  let paths_from graph ~pred_of ~beacons ~destinations =
    let acc = ref [] in
    Array.iter
      (fun b ->
        let pred = pred_of b in
        Array.iter
          (fun d ->
            match path_of_pred graph pred ~src:b ~dst:d with
            | Some p -> acc := p :: !acc
            | None -> ())
          destinations)
      beacons;
    Array.of_list (List.rev !acc)

  let paths_between g ~beacons ~destinations =
    let graph = Graph.of_graph g in
    paths_from graph ~pred_of:(bfs graph) ~beacons ~destinations

  let paths_between_weighted g ~weight ~beacons ~destinations =
    let graph = Graph.of_graph g in
    paths_from graph ~pred_of:(dijkstra graph ~weight) ~beacons ~destinations

  (* The alias reduction as it was before its flat arrays: aliased edges
     grouped in a [Hashtbl] keyed on their [int list] cover sets, each row
     deduplicated through [List.sort_uniq]. *)
  let reduce graph paths =
    let np = Array.length paths in
    if np = 0 then invalid_arg "Routing.reduce: no paths";
    let ne = Topology.Graph.edge_count graph in
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
    { Topology.Routing.matrix = Sparse.create ~cols:nc rows; paths; vlinks; edge_vlink }
end
