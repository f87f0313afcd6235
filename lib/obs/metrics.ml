(* Metrics registry with per-domain sharded accumulators.

   Probes must be cheap enough to leave compiled into the hot layers:

   - every metric carries the owning registry's [on] flag, so a probe on
     a disabled registry is one load + one branch and touches no shared
     cache line;
   - counter and histogram-bucket cells are integers sharded by domain id,
     so concurrent increments rarely contend and the merged total is a sum
     of integers — exact, hence independent of which domain ran which
     block and of the merge order;
   - histogram per-shard sums are floats, merged in shard index order, so
     a merge of the same shard contents is deterministic (the shard
     contents themselves depend on domain scheduling; only the integer
     cells are fully order-independent).

   Metric names follow Prometheus conventions ([a-z_] with unit
   suffixes); [dump] emits the text exposition format. *)

let shards = 16 (* power of two, comfortably above the pool's 8-domain cap *)

let shard () = (Domain.self () :> int) land (shards - 1)

type counter = { c_on : bool ref; cells : int Atomic.t array }

type gauge = { g_on : bool ref; value : float Atomic.t }

type histogram = {
  h_on : bool ref;
  edges : float array; (* strictly increasing upper bounds; +inf implicit *)
  buckets : int Atomic.t array array; (* shard -> bucket counts *)
  sums : float Atomic.t array; (* shard -> sum of observations *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  on : bool ref;
  mutex : Mutex.t;
  mutable items : (string * string * metric) list; (* reverse registration order *)
}

let create ?(on = true) () = { on = ref on; mutex = Mutex.create (); items = [] }

let default = create ~on:false ()

let enable t = t.on := true

let disable t = t.on := false

let enabled t = !(t.on)

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.; 10. |]

let valid_name name =
  name <> ""
  && String.for_all
       (fun c -> (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '_')
       name

let find t name = List.find_opt (fun (n, _, _) -> n = name) t.items

let register t ~help name make describe =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Obs.Metrics: invalid metric name %S" name);
  Mutex.lock t.mutex;
  let m =
    match find t name with
    | Some (_, _, existing) -> (
        match describe existing with
        | Some m -> m
        | None ->
            Mutex.unlock t.mutex;
            invalid_arg
              (Printf.sprintf "Obs.Metrics: %S registered with another type" name))
    | None ->
        let m = make () in
        t.items <- (name, help, m) :: t.items;
        m
  in
  Mutex.unlock t.mutex;
  m

let counter t ?(help = "") name =
  match
    register t ~help name
      (fun () ->
        Counter { c_on = t.on; cells = Array.init shards (fun _ -> Atomic.make 0) })
      (function Counter _ as m -> Some m | _ -> None)
  with
  | Counter c -> c
  | _ -> assert false

let gauge t ?(help = "") name =
  match
    register t ~help name
      (fun () -> Gauge { g_on = t.on; value = Atomic.make 0. })
      (function Gauge _ as m -> Some m | _ -> None)
  with
  | Gauge g -> g
  | _ -> assert false

let histogram t ?(help = "") ?(buckets = default_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  Array.iteri
    (fun i e -> if i > 0 && e <= buckets.(i - 1) then ok := false)
    buckets;
  if not !ok then
    invalid_arg "Obs.Metrics.histogram: bucket edges must be strictly increasing";
  match
    register t ~help name
      (fun () ->
        Histogram
          {
            h_on = t.on;
            edges = Array.copy buckets;
            buckets =
              Array.init shards (fun _ ->
                  Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0));
            sums = Array.init shards (fun _ -> Atomic.make 0.);
          })
      (function Histogram _ as m -> Some m | _ -> None)
  with
  | Histogram h -> h
  | _ -> assert false

(* --- probes ----------------------------------------------------------- *)

let add c n = if !(c.c_on) then ignore (Atomic.fetch_and_add c.cells.(shard ()) n)

let incr c = add c 1

let set g x = if !(g.g_on) then Atomic.set g.value x

let atomic_float_add cell x =
  let rec go () =
    let prev = Atomic.get cell in
    if not (Atomic.compare_and_set cell prev (prev +. x)) then go ()
  in
  go ()

let bucket_index edges x =
  (* first bucket whose upper edge admits x; Prometheus "le" is inclusive *)
  let n = Array.length edges in
  let rec go i = if i >= n then n else if x <= edges.(i) then i else go (i + 1) in
  go 0

let observe h x =
  if !(h.h_on) then begin
    let s = shard () in
    ignore (Atomic.fetch_and_add h.buckets.(s).(bucket_index h.edges x) 1);
    atomic_float_add h.sums.(s) x
  end

let time h f =
  if not !(h.h_on) then f ()
  else begin
    let t0 = Clock.now_ns () in
    Fun.protect ~finally:(fun () -> observe h (Clock.seconds_since t0)) f
  end

(* --- reads and merges -------------------------------------------------- *)

let counter_value c = Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.cells

let gauge_value g = Atomic.get g.value

let histogram_counts h =
  let out = Array.make (Array.length h.edges + 1) 0 in
  Array.iter
    (fun per_shard ->
      Array.iteri (fun b cell -> out.(b) <- out.(b) + Atomic.get cell) per_shard)
    h.buckets;
  out

let histogram_count h = Array.fold_left ( + ) 0 (histogram_counts h)

let histogram_sum h =
  (* shard index order: deterministic for fixed shard contents *)
  Array.fold_left (fun acc s -> acc +. Atomic.get s) 0. h.sums

let histogram_quantile h q =
  if not (q >= 0. && q <= 1.) then
    invalid_arg "Obs.Metrics.histogram_quantile: q outside [0, 1]";
  let counts = histogram_counts h in
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then Float.nan
  else begin
    (* walk the cumulative distribution to the bucket holding rank
       q·total, then interpolate linearly inside it — the Prometheus
       histogram_quantile() estimate. The first bucket's lower edge is
       0 (every recorded value here is a duration); the +Inf bucket has
       no upper edge, so it reports its lower edge (the largest finite
       edge), the same conservative clamp Prometheus applies. *)
    let rank = q *. float_of_int total in
    let n_edges = Array.length h.edges in
    let rec go b cum =
      let cum' = cum +. float_of_int counts.(b) in
      if cum' >= rank || b = n_edges then (b, cum)
      else go (b + 1) cum'
    in
    let b, below = go 0 0. in
    if b >= n_edges then h.edges.(n_edges - 1)
    else begin
      let lower = if b = 0 then 0. else h.edges.(b - 1) in
      let upper = h.edges.(b) in
      let inside = float_of_int counts.(b) in
      if inside <= 0. then upper
      else lower +. ((upper -. lower) *. ((rank -. below) /. inside))
    end
  end

let reset t =
  Mutex.lock t.mutex;
  List.iter
    (fun (_, _, m) ->
      match m with
      | Counter c -> Array.iter (fun cell -> Atomic.set cell 0) c.cells
      | Gauge g -> Atomic.set g.value 0.
      | Histogram h ->
          Array.iter (Array.iter (fun cell -> Atomic.set cell 0)) h.buckets;
          Array.iter (fun s -> Atomic.set s 0.) h.sums)
    t.items;
  Mutex.unlock t.mutex

let names t =
  Mutex.lock t.mutex;
  let l = List.rev_map (fun (n, _, _) -> n) t.items in
  Mutex.unlock t.mutex;
  l

(* --- Prometheus text exposition ---------------------------------------- *)

let dump t =
  Mutex.lock t.mutex;
  let items = List.rev t.items in
  Mutex.unlock t.mutex;
  let b = Buffer.create 1024 in
  let edge_label e =
    (* shortest decimal that round-trips, matching Prometheus style *)
    Printf.sprintf "%g" e
  in
  List.iter
    (fun (name, help, m) ->
      if help <> "" then Printf.bprintf b "# HELP %s %s\n" name help;
      match m with
      | Counter c ->
          Printf.bprintf b "# TYPE %s counter\n%s %d\n" name name (counter_value c)
      | Gauge g ->
          Printf.bprintf b "# TYPE %s gauge\n%s %.12g\n" name name (gauge_value g)
      | Histogram h ->
          Printf.bprintf b "# TYPE %s histogram\n" name;
          let counts = histogram_counts h in
          let cum = ref 0 in
          Array.iteri
            (fun i e ->
              cum := !cum + counts.(i);
              Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name (edge_label e) !cum)
            h.edges;
          cum := !cum + counts.(Array.length h.edges);
          Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name !cum;
          Printf.bprintf b "%s_sum %.12g\n" name (histogram_sum h);
          Printf.bprintf b "%s_count %d\n" name !cum)
    items;
  Buffer.contents b
