let to_string (t : Testbed.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "netloss-testbed 1\n";
  Array.iter
    (fun (n : Graph.node) ->
      Buffer.add_string b
        (Printf.sprintf "node %d %s %d\n" n.Graph.id
           (match n.Graph.kind with Graph.Host -> "host" | Graph.Router -> "router")
           n.Graph.as_id))
    (Graph.nodes t.Testbed.graph);
  Array.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string b (Printf.sprintf "edge %d %d\n" e.Graph.src e.Graph.dst))
    (Graph.edges t.Testbed.graph);
  Array.iter
    (fun i -> Buffer.add_string b (Printf.sprintf "beacon %d\n" i))
    t.Testbed.beacons;
  Array.iter
    (fun i -> Buffer.add_string b (Printf.sprintf "dest %d\n" i))
    t.Testbed.destinations;
  Buffer.contents b

(* A growable array: the counts are known only at the end of the file.
   (Lists instead made the ledger's set-up about 4% slower at 2 070 paths.) *)
type 'a buf = { mutable items : 'a array; mutable len : int }

let buf x = { items = Array.make 64 x; len = 0 }

let push b x =
  if b.len = Array.length b.items then begin
    let bigger = Array.make (2 * b.len) x in
    Array.blit b.items 0 bigger 0 b.len;
    b.items <- bigger
  end;
  b.items.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.items 0 b.len

let no_node = { Graph.id = -1; kind = Graph.Router; as_id = 0 }

(* Lines are checked as they come, so the first malformed line is
   reported; the header, the node ids, the edges and the roles are
   checked after the last line, in that order. *)
let parse ~path s =
  let c = Scan.create ~path s in
  let fail msg = raise (Scan.error c msg) in
  let int i msg = try Scan.int_field c i with Failure _ -> fail msg in
  let nodes = buf no_node and edges = buf (0, 0) in
  let beacons = buf 0 and dests = buf 0 in
  let header_seen = ref false in
  let first = Scan.field_is c 0 in
  while Scan.next_line c do
    let n = Scan.fields c in
    if first "netloss-testbed" && n = 2 && Scan.field_is c 1 "1" then
      header_seen := true
    else if first "node" && n = 4 then begin
      let kind =
        if Scan.field_is c 2 "host" then Graph.Host
        else if Scan.field_is c 2 "router" then Graph.Router
        else fail "unknown node kind"
      in
      let id = int 1 "bad node numbers" in
      push nodes { Graph.id; kind; as_id = int 3 "bad node numbers" }
    end
    else if first "edge" && n = 3 then begin
      let src = int 1 "bad edge numbers" in
      push edges (src, int 2 "bad edge numbers")
    end
    else if first "beacon" && n = 2 then push beacons (int 1 "bad beacon id")
    else if first "dest" && n = 2 then push dests (int 1 "bad destination id")
    else fail ("unrecognized line: " ^ Scan.line_text c)
  done;
  if not !header_seen then failwith "missing netloss-testbed header";
  (* dense means the ids are 0 .. n - 1, each once *)
  let node_array = Array.make nodes.len no_node in
  for k = 0 to nodes.len - 1 do
    let (v : Graph.node) = nodes.items.(k) in
    if v.id < 0 || v.id >= nodes.len || node_array.(v.id).id = v.id then
      failwith "node ids are not dense from 0";
    node_array.(v.id) <- v
  done;
  let graph = Graph.create ~nodes:node_array ~edges:(contents edges) in
  let t =
    { Testbed.graph; beacons = contents beacons; destinations = contents dests }
  in
  Testbed.validate t;
  t

let of_string s = parse ~path:"<string>" s

let save path t =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir "testbed" ".tmp" in
  let oc = open_out tmp in
  (try output_string oc (to_string t)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc;
  Sys.rename tmp path

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  parse ~path s
