module Sparse = Linalg.Sparse
module Qr = Linalg.Qr

type verdict = Identifiable | Dependent of int list

(* Gram matrix of the augmented matrix over its non-empty rows: G[k,l]
   counts the path pairs (i <= j) in which both k and l appear in
   Ri ⊗ Rj. Empty rows add nothing to it. *)
let augmented_gram r =
  let _, _, a = Augmented.pairs r in
  Sparse.normal_matrix a

let check r =
  let nc = Sparse.cols r in
  if nc = 0 then Identifiable
  else begin
    let g = augmented_gram r in
    (* rank of G = AᵀA equals the column rank of A; the pivoted QR gives a
       reliable numerical rank plus the entangled columns *)
    let f = Qr.factorize_pivoted g in
    let rank = Qr.rank f in
    if rank = nc then Identifiable
    else begin
      let piv = Qr.pivots f in
      let dependent = Array.to_list (Array.sub piv rank (nc - rank)) in
      Dependent (List.sort compare dependent)
    end
  end

let is_identifiable r = check r = Identifiable

let assumptions_report graph paths =
  let covered = Array.make (Topology.Graph.edge_count graph) false in
  Array.iter
    (fun (p : Topology.Path.t) ->
      Array.iter (fun e -> covered.(e) <- true) p.Topology.Path.edges)
    paths;
  let all_covered = Array.for_all (fun c -> c) covered in
  let no_flutter = Topology.Flutter.check paths = [] in
  let pairs = Hashtbl.create (Array.length paths) in
  let unique = ref true in
  Array.iter
    (fun (p : Topology.Path.t) ->
      let key = (p.Topology.Path.src, p.Topology.Path.dst) in
      if Hashtbl.mem pairs key then unique := false;
      Hashtbl.replace pairs key ())
    paths;
  [
    ("every link covered by a path", all_covered);
    ("no route fluttering (T.2)", no_flutter);
    ("single path per beacon/destination pair", !unique);
  ]
