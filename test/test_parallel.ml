(* Tests for the lib/parallel domain pool and the determinism contract of
   the parallel kernels: for every [jobs] value the covariance,
   normal-equation, and augmented-matrix kernels must return bit-for-bit
   the same result as the sequential run. *)

module Sparse = Linalg.Sparse
module Matrix = Linalg.Matrix
module Rng = Nstats.Rng
module Pool = Parallel.Pool
module Chunk = Parallel.Chunk

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

(* --- Chunk ------------------------------------------------------------ *)

let test_block_count () =
  Alcotest.(check int) "zero items" 0 (Chunk.block_count 0);
  Alcotest.(check int) "below cutoff" 1 (Chunk.block_count 2047);
  Alcotest.(check int) "scales with size" 4 (Chunk.block_count (4 * 2048));
  Alcotest.(check int) "capped" 64 (Chunk.block_count 1_000_000);
  Alcotest.(check int) "custom knobs" 3
    (Chunk.block_count ~min_block:10 ~max_blocks:3 1000)

let test_ranges_tile () =
  List.iter
    (fun (blocks, n) ->
      let covered = Array.make n 0 in
      let prev_hi = ref 0 in
      for b = 0 to blocks - 1 do
        let lo, hi = Chunk.range ~blocks ~n b in
        Alcotest.(check int) "contiguous" !prev_hi lo;
        prev_hi := hi;
        for i = lo to hi - 1 do
          covered.(i) <- covered.(i) + 1
        done
      done;
      Alcotest.(check int) "ends at n" n !prev_hi;
      Alcotest.(check bool) "each index once" true
        (Array.for_all (fun c -> c = 1) covered))
    [ (1, 5); (3, 10); (7, 7); (4, 1023) ]

let test_iter_pairs_matches_row_index () =
  let np = 9 in
  let total = np * (np + 1) / 2 in
  let seen = ref [] in
  Chunk.iter_pairs ~np ~lo:0 ~hi:total (fun k i j -> seen := (k, i, j) :: !seen);
  let seen = List.rev !seen in
  Alcotest.(check int) "visits all pairs" total (List.length seen);
  List.iter
    (fun (k, i, j) ->
      Alcotest.(check int) "k = row_index" (Core.Augmented.row_index ~np ~i ~j) k;
      let i', j' = Core.Augmented.row_pair ~np k in
      Alcotest.(check (pair int int)) "pair = row_pair" (i', j') (i, j))
    seen;
  (* a strict sub-range starts mid-triangle *)
  let sub = ref [] in
  Chunk.iter_pairs ~np ~lo:17 ~hi:23 (fun k i j -> sub := (k, i, j) :: !sub);
  List.iter
    (fun (k, i, j) ->
      Alcotest.(check int) "sub-range k" (Core.Augmented.row_index ~np ~i ~j) k)
    (List.rev !sub);
  Alcotest.(check int) "sub-range size" 6 (List.length !sub)

(* --- Pool ------------------------------------------------------------- *)

let test_parallel_for_squares () =
  let n = 1000 in
  let out = Array.make n 0 in
  Pool.parallel_for ~jobs:4 ~min_block:16 ~n (fun i -> out.(i) <- i * i);
  Alcotest.(check bool) "all squares" true
    (Array.for_all (fun b -> b) (Array.mapi (fun i x -> x = i * i) out))

let test_map_reduce_deterministic () =
  (* the reduction is deliberately non-associative so any deviation from
     block-index order would change the bits *)
  let map b = 1. /. float_of_int (b + 1) in
  let reduce acc x = (acc *. 0.75) +. x in
  let run jobs = Pool.map_reduce ~jobs ~blocks:37 ~map ~reduce ~init:0. in
  let seq = run 1 in
  Alcotest.(check bool) "jobs=2 same bits" true (bits_equal seq (run 2));
  Alcotest.(check bool) "jobs=4 same bits" true (bits_equal seq (run 4));
  (* and the sequential run is the plain left fold *)
  let expected = ref 0. in
  for b = 0 to 36 do
    expected := reduce !expected (map b)
  done;
  Alcotest.(check bool) "matches left fold" true (bits_equal !expected seq)

let test_exception_propagates () =
  Alcotest.check_raises "worker exception reaches caller" (Failure "boom")
    (fun () ->
      Pool.parallel_for ~jobs:4 ~min_block:1 ~n:64 (fun i ->
          if i = 37 then failwith "boom"))

let test_first_exception_wins () =
  (* one failing index per block: the lowest-numbered failure is reported,
     whatever order the blocks actually ran in *)
  try
    Pool.parallel_for ~jobs:4 ~min_block:1 ~n:64 (fun i ->
        if i = 11 then failwith "low" else if i = 53 then failwith "high");
    Alcotest.fail "expected an exception"
  with Failure msg -> Alcotest.(check string) "lowest block's exception" "low" msg

let test_pool_reuse_across_calls () =
  let sum n jobs =
    Pool.map_reduce ~jobs ~blocks:n
      ~map:(fun b -> b)
      ~reduce:( + ) ~init:0
  in
  (* same shared pool serves repeated and differently-shaped calls *)
  Alcotest.(check int) "first use" 190 (sum 20 3);
  Alcotest.(check int) "second use" 190 (sum 20 3);
  Alcotest.(check int) "third use, other shape" 4950 (sum 100 3)

let test_explicit_pool_shutdown () =
  let pool = Pool.create ~jobs:3 in
  Alcotest.(check int) "size" 3 (Pool.size pool);
  let out = Array.make 32 0 in
  Pool.for_blocks ~pool 32 (fun b -> out.(b) <- b + 1);
  Alcotest.(check bool) "ran" true (Array.for_all (fun x -> x > 0) out);
  Pool.for_blocks ~pool 32 (fun b -> out.(b) <- b + 2);
  Alcotest.(check bool) "reusable" true (Array.for_all (fun x -> x > 1) out);
  Pool.shutdown pool;
  Alcotest.check_raises "use after shutdown"
    (Invalid_argument "Parallel.Pool: pool has been shut down") (fun () ->
      Pool.for_blocks ~pool 32 (fun _ -> ()))

let test_pool_stats () =
  let pool = Pool.create ~jobs:2 in
  let s0 = Pool.stats pool in
  Alcotest.(check int) "fresh tasks" 0 s0.Pool.tasks_run;
  Alcotest.(check int) "fresh blocks" 0 s0.Pool.blocks_scheduled;
  Alcotest.(check int) "fresh fallbacks" 0 s0.Pool.sequential_fallbacks;
  Pool.for_blocks ~pool 8 (fun _ -> ());
  Pool.for_blocks ~pool 5 (fun _ -> ());
  let s = Pool.stats pool in
  Alcotest.(check int) "every block became a task" 13 s.Pool.tasks_run;
  Alcotest.(check int) "blocks scheduled" 13 s.Pool.blocks_scheduled;
  Alcotest.(check int) "no fallbacks yet" 0 s.Pool.sequential_fallbacks;
  (* a single block degrades to an inline run and is counted as such *)
  Pool.for_blocks ~pool 1 (fun _ -> ());
  let s = Pool.stats pool in
  Alcotest.(check int) "fallback counted" 1 s.Pool.sequential_fallbacks;
  Alcotest.(check int) "no task for the inline run" 13 s.Pool.tasks_run;
  Pool.shutdown pool

let test_nested_calls_safe () =
  let n = 8 in
  let out = Array.make n 0 in
  Pool.for_blocks ~jobs:2 n (fun b ->
      (* the inner section must degrade to sequential instead of
         deadlocking the two-domain pool *)
      let acc = Atomic.make 0 in
      Pool.parallel_for ~jobs:2 ~min_block:1 ~n:10 (fun i ->
          ignore (Atomic.fetch_and_add acc i));
      out.(b) <- Atomic.get acc);
  Alcotest.(check bool) "nested sums correct" true
    (Array.for_all (fun x -> x = 45) out)

let test_buffers_reused () =
  let made = ref 0 in
  let bufs =
    Pool.Buffers.create (fun () ->
        incr made;
        Array.make 4 0.)
  in
  let b1 = Pool.Buffers.borrow bufs in
  Pool.Buffers.return bufs b1;
  let b2 = Pool.Buffers.borrow bufs in
  Alcotest.(check bool) "returned buffer is reused" true (b1 == b2);
  Alcotest.(check int) "one allocation" 1 !made;
  Alcotest.(check int) "all tracks creations" 1 (List.length (Pool.Buffers.all bufs))

(* --- parallel kernels are bit-for-bit sequential ---------------------- *)

let random_campaign seed =
  let rng = Rng.create seed in
  let n = 150 + (seed mod 100) in
  let tb = Topology.Tree_gen.generate rng ~nodes:n ~max_branching:5 () in
  let red = Topology.Testbed.routing tb in
  let r = red.Topology.Routing.matrix in
  let config =
    Netsim.Snapshot.default_config Lossmodel.Loss_model.llrd1_calibrated
  in
  let run = Netsim.Simulator.run rng config r ~count:13 in
  let y_learn, _ = Netsim.Simulator.split_learning run ~learning:12 in
  (r, y_learn)

let prop_estimate_streaming_jobs_invariant =
  QCheck.Test.make ~count:6
    ~name:"estimate_streaming: jobs in {2,4} bit-for-bit = jobs 1"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, y_learn = random_campaign seed in
      let v1 = Core.Variance_estimator.estimate ~jobs:1 ~r ~y:y_learn () in
      List.for_all
        (fun jobs ->
          let v = Core.Variance_estimator.estimate ~jobs ~r ~y:y_learn () in
          vec_bits_equal v1 v)
        [ 2; 4 ])

let prop_covariance_matrix_jobs_invariant =
  QCheck.Test.make ~count:6
    ~name:"covariance_matrix: jobs in {2,4} bit-for-bit = jobs 1"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let _, y_learn = random_campaign seed in
      let s1 = Nstats.Descriptive.covariance_matrix ~jobs:1 y_learn in
      List.for_all
        (fun jobs ->
          matrix_bits_equal s1 (Nstats.Descriptive.covariance_matrix ~jobs y_learn))
        [ 2; 4 ])

let prop_normal_matrix_jobs_invariant =
  QCheck.Test.make ~count:6
    ~name:"normal_matrix + Augmented.build: jobs in {2,4} = jobs 1"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let r, _ = random_campaign seed in
      let a1 = Core.Augmented.build ~jobs:1 r in
      let g1 = Sparse.normal_matrix ~jobs:1 a1 in
      List.for_all
        (fun jobs ->
          let a = Core.Augmented.build ~jobs r in
          Sparse.equal a1 a && matrix_bits_equal g1 (Sparse.normal_matrix ~jobs a))
        [ 2; 4 ])

(* the pre-refactor covariance_matrix: center the full m×p matrix, then
   Gram — kept here as the oracle for the column-wise kernel *)
let covariance_matrix_oracle obs =
  let m = Matrix.rows obs and p = Matrix.cols obs in
  let mu = Nstats.Descriptive.mean_vector obs in
  let centered = Matrix.init m p (fun i j -> Matrix.get obs i j -. mu.(j)) in
  Matrix.scale (1. /. float_of_int (m - 1)) (Matrix.gram centered)

let prop_covariance_matrix_matches_oracle =
  QCheck.Test.make ~count:8
    ~name:"covariance_matrix: column-wise kernel matches dense oracle"
    QCheck.(int_range 1 5000)
    (fun seed ->
      let rng = Rng.create seed in
      let m = 8 + (seed mod 20) and p = 5 + (seed mod 30) in
      let y = Matrix.init m p (fun _ _ -> Rng.uniform rng (-1.) 1.) in
      let fast = Nstats.Descriptive.covariance_matrix y in
      Matrix.approx_equal ~tol:1e-12 (covariance_matrix_oracle y) fast)

let pool_tests =
  [
    Alcotest.test_case "chunk: block_count heuristic" `Quick test_block_count;
    Alcotest.test_case "chunk: ranges tile [0,n)" `Quick test_ranges_tile;
    Alcotest.test_case "chunk: iter_pairs = Augmented.row_index" `Quick
      test_iter_pairs_matches_row_index;
    Alcotest.test_case "pool: parallel_for" `Quick test_parallel_for_squares;
    Alcotest.test_case "pool: map_reduce deterministic order" `Quick
      test_map_reduce_deterministic;
    Alcotest.test_case "pool: exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "pool: lowest block exception wins" `Quick
      test_first_exception_wins;
    Alcotest.test_case "pool: shared pool reused across calls" `Quick
      test_pool_reuse_across_calls;
    Alcotest.test_case "pool: explicit create/shutdown" `Quick
      test_explicit_pool_shutdown;
    Alcotest.test_case "pool: stats counts tasks and fallbacks" `Quick
      test_pool_stats;
    Alcotest.test_case "pool: nested sections are safe" `Quick
      test_nested_calls_safe;
    Alcotest.test_case "pool: accumulation buffers reused" `Quick
      test_buffers_reused;
  ]

let determinism_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_estimate_streaming_jobs_invariant;
      prop_covariance_matrix_jobs_invariant;
      prop_normal_matrix_jobs_invariant;
      prop_covariance_matrix_matches_oracle;
    ]

let () =
  Alcotest.run "parallel"
    [ ("pool", pool_tests); ("determinism", determinism_tests) ]
