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

(* [where lineno] locates a malformed line: ["FILE:LINE"] when loading a
   file (the form [Trace_io] uses), ["line LINE"] for a bare string *)
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

let of_string s = parse ~where:(Printf.sprintf "line %d") s

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
  parse ~where:(Printf.sprintf "%s:%d" path) s
