let default_jobs () = min (Domain.recommended_domain_count ()) 8

(* process-wide telemetry, against the default (initially disabled)
   registry; a disabled probe is one branch, see Obs.Metrics *)
let m_tasks =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Pool tasks executed (one per scheduled block)" "pool_tasks_total"

let m_blocks =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Blocks submitted to the pool queue" "pool_blocks_scheduled_total"

let m_seq_fallbacks =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Parallel sections run sequentially (jobs=1, single block, or nested)"
    "pool_sequential_fallbacks_total"

let m_nested_fallbacks =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Sequential fallbacks taken because the caller was already a pool task"
    "pool_nested_fallbacks_total"

let m_queue_wait =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds between block enqueue and execution start"
    "pool_queue_wait_seconds"

let m_busy_ns =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Nanoseconds pool workers spent executing tasks" "pool_worker_busy_ns_total"

let m_idle_ns =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Nanoseconds pool workers spent waiting for work" "pool_worker_idle_ns_total"

type stats = {
  tasks_run : int;
  blocks_scheduled : int;
  sequential_fallbacks : int;
  queue_wait_p50 : float;
  queue_wait_p95 : float;
  queue_wait_p99 : float;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t list;
  mutable stopping : bool;
  tasks_run : int Atomic.t;
  blocks_scheduled : int Atomic.t;
  seq_fallbacks : int Atomic.t;
}

let stats pool =
  {
    tasks_run = Atomic.get pool.tasks_run;
    blocks_scheduled = Atomic.get pool.blocks_scheduled;
    sequential_fallbacks = Atomic.get pool.seq_fallbacks;
    (* read back from the process-wide queue-wait histogram: per-pool
       attribution is not tracked, and the estimate is nan until the
       metrics registry has observed at least one enqueue *)
    queue_wait_p50 = Obs.Metrics.histogram_quantile m_queue_wait 0.50;
    queue_wait_p95 = Obs.Metrics.histogram_quantile m_queue_wait 0.95;
    queue_wait_p99 = Obs.Metrics.histogram_quantile m_queue_wait 0.99;
  }

(* set while a pool task runs, so nested parallel sections degrade to
   sequential execution instead of deadlocking the pool *)
let in_task_key = Domain.DLS.new_key (fun () -> false)

let in_task () = Domain.DLS.get in_task_key

let rec worker_loop pool =
  (* busy/idle accounting only touches the clock when the registry is
     enabled; the disabled path is branch-free apart from [obs] itself *)
  let obs = Obs.Metrics.enabled Obs.Metrics.default in
  let t_wait = if obs then Obs.Clock.now_ns () else 0L in
  Mutex.lock pool.mutex;
  let rec next () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
        if pool.stopping then None
        else begin
          Condition.wait pool.has_work pool.mutex;
          next ()
        end
  in
  let task = next () in
  Mutex.unlock pool.mutex;
  match task with
  | None -> ()
  | Some task ->
      if obs then begin
        let t_run = Obs.Clock.now_ns () in
        Obs.Metrics.add m_idle_ns (Int64.to_int (Int64.sub t_run t_wait));
        task ();
        Obs.Metrics.add m_busy_ns
          (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t_run))
      end
      else task ();
      worker_loop pool

let create ~jobs =
  if jobs < 1 then invalid_arg "Parallel.Pool.create: jobs < 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      queue = Queue.create ();
      workers = [];
      stopping = false;
      tasks_run = Atomic.make 0;
      blocks_scheduled = Atomic.make 0;
      seq_fallbacks = Atomic.make 0;
    }
  in
  pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker_loop pool));
  pool

let size pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

(* process-wide pools, one per jobs value, spawned on first use *)
let registry_mutex = Mutex.create ()

let registry : (int, t) Hashtbl.t = Hashtbl.create 8

let get ~jobs =
  if jobs < 1 then invalid_arg "Parallel.Pool.get: jobs < 1";
  Mutex.lock registry_mutex;
  let pool =
    match Hashtbl.find_opt registry jobs with
    | Some pool -> pool
    | None ->
        let pool = create ~jobs in
        Hashtbl.add registry jobs pool;
        pool
  in
  Mutex.unlock registry_mutex;
  pool

(* tasks never let an exception escape into [worker_loop]; the first (by
   block index) exception is re-raised in the caller after the barrier *)
let run_blocks pool n f =
  let remaining = Atomic.make n in
  let fin_mutex = Mutex.create () in
  let fin_cond = Condition.create () in
  let exns = Array.make n None in
  Atomic.fetch_and_add pool.blocks_scheduled n |> ignore;
  Obs.Metrics.add m_blocks n;
  (* one reading at submission serves every block's queue-wait probe *)
  let t_enqueue =
    if Obs.Metrics.enabled Obs.Metrics.default then Obs.Clock.now_ns () else 0L
  in
  let tracing = Obs.Trace.enabled Obs.Trace.default in
  let task b () =
    Domain.DLS.set in_task_key true;
    Atomic.incr pool.tasks_run;
    Obs.Metrics.incr m_tasks;
    if Obs.Metrics.enabled Obs.Metrics.default && Int64.compare t_enqueue 0L > 0
    then Obs.Metrics.observe m_queue_wait (Obs.Clock.seconds_since t_enqueue);
    (try
       if tracing then
         Obs.Event.span ~fields:[ ("block", Obs.Field.Int b) ] "pool.task"
           (fun () -> f b)
       else f b
     with e -> exns.(b) <- Some e);
    Domain.DLS.set in_task_key false;
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      Mutex.lock fin_mutex;
      Condition.broadcast fin_cond;
      Mutex.unlock fin_mutex
    end
  in
  Mutex.lock pool.mutex;
  if pool.stopping then begin
    Mutex.unlock pool.mutex;
    invalid_arg "Parallel.Pool: pool has been shut down"
  end;
  for b = 0 to n - 1 do
    Queue.push (task b) pool.queue
  done;
  Condition.broadcast pool.has_work;
  Mutex.unlock pool.mutex;
  (* the caller works too: drain the queue, then wait out stragglers *)
  let rec help () =
    if Atomic.get remaining > 0 then begin
      Mutex.lock pool.mutex;
      let t = Queue.take_opt pool.queue in
      Mutex.unlock pool.mutex;
      match t with
      | Some t ->
          t ();
          help ()
      | None ->
          Mutex.lock fin_mutex;
          while Atomic.get remaining > 0 do
            Condition.wait fin_cond fin_mutex
          done;
          Mutex.unlock fin_mutex
    end
  in
  help ();
  Array.iter (function Some e -> raise e | None -> ()) exns

let for_blocks ?jobs ?pool n f =
  if n < 0 then invalid_arg "Parallel.Pool.for_blocks: negative block count";
  if n > 0 then begin
    let jobs =
      match (pool, jobs) with
      | Some p, _ -> size p
      | None, Some j ->
          if j < 1 then invalid_arg "Parallel.Pool.for_blocks: jobs < 1";
          j
      | None, None -> default_jobs ()
    in
    if jobs = 1 || n = 1 || in_task () then begin
      Obs.Metrics.incr m_seq_fallbacks;
      if in_task () then Obs.Metrics.incr m_nested_fallbacks;
      (match pool with
      | Some p -> Atomic.incr p.seq_fallbacks
      | None -> ());
      for b = 0 to n - 1 do
        f b
      done
    end
    else
      let pool = match pool with Some p -> p | None -> get ~jobs in
      run_blocks pool n f
  end

let parallel_for ?jobs ?min_block ~n f =
  let blocks = Chunk.block_count ?min_block n in
  for_blocks ?jobs blocks (fun b ->
      let lo, hi = Chunk.range ~blocks ~n b in
      for i = lo to hi - 1 do
        f i
      done)

let map_reduce ?jobs ~blocks ~map ~reduce ~init =
  if blocks < 0 then invalid_arg "Parallel.Pool.map_reduce: negative block count";
  let results = Array.make blocks None in
  for_blocks ?jobs blocks (fun b -> results.(b) <- Some (map b));
  Array.fold_left
    (fun acc r ->
      match r with Some x -> reduce acc x | None -> assert false)
    init results

module Buffers = struct
  type 'a t = {
    make : unit -> 'a;
    mutex : Mutex.t;
    mutable free : 'a list;
    mutable created : 'a list;
  }

  let create make = { make; mutex = Mutex.create (); free = []; created = [] }

  let borrow t =
    Mutex.lock t.mutex;
    match t.free with
    | b :: rest ->
        t.free <- rest;
        Mutex.unlock t.mutex;
        b
    | [] ->
        Mutex.unlock t.mutex;
        let b = t.make () in
        Mutex.lock t.mutex;
        t.created <- b :: t.created;
        Mutex.unlock t.mutex;
        b

  let return t b =
    Mutex.lock t.mutex;
    t.free <- b :: t.free;
    Mutex.unlock t.mutex

  let all t =
    Mutex.lock t.mutex;
    let l = t.created in
    Mutex.unlock t.mutex;
    l
end
