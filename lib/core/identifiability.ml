module Sparse = Linalg.Sparse
module Exact_basis = Linalg.Exact_basis

type verdict = Identifiable | Dependent of int list

(* Column j of the augmented matrix over its non-empty rows is the set of
   path pairs whose routes share link j. Scanning from the highest id
   down, a column that does not join the basis is in the span of the
   higher-id columns. *)
let check r =
  let _, _, a = Augmented.pairs r in
  let columns = Sparse.cols_index a in
  let basis = Exact_basis.create ~dim:(Sparse.rows a) in
  let dependent = ref [] in
  for j = Sparse.cols a - 1 downto 0 do
    if not (Exact_basis.try_add basis columns.(j)) then dependent := j :: !dependent
  done;
  if !dependent = [] then Identifiable else Dependent !dependent

let is_identifiable r = check r = Identifiable

let assumptions_report graph paths ~removed =
  let covered = Array.make (Topology.Graph.edge_count graph) false in
  Array.iter
    (fun (p : Topology.Path.t) ->
      Array.iter (fun e -> covered.(e) <- true) p.Topology.Path.edges)
    paths;
  let all_covered = Array.for_all (fun c -> c) covered in
  let no_flutter = Array.length removed = 0 in
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
