module Sparse = Linalg.Sparse
module Qr = Linalg.Qr

let m_phase1 =
  Obs.Metrics.histogram Obs.Metrics.default
    ~help:"Seconds per phase-1 variance-estimation kernel run"
    "lia_phase1_kernel_seconds"

let m_pairs =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Path pairs swept by the phase-1 kernels" "lia_pairs_total"

let m_pairs_skipped =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"Path pairs skipped for lack of overlapping snapshots"
    "lia_pairs_skipped_total"

let g_samples_min =
  Obs.Metrics.gauge Obs.Metrics.default
    ~help:"Smallest pairwise-complete sample count used by the last phase-1 run"
    "lia_effective_samples_min"

let m_cgls_iters =
  Obs.Metrics.counter Obs.Metrics.default
    ~help:"CGLS iterations run by the matrix-free phase-1 solver"
    "lia_cgls_iterations"

type method_ = Normal_equations | Dense_qr

type options = { method_ : method_; drop_negative : bool; clamp : bool }

type ess = { pairs_total : int; pairs_used : int; samples_min : int }

type precond_spec = Pc_none | Pc_jacobi | Pc_block_jacobi of int array array

type matfree_options = {
  tol : float;
  max_iter : int option;
  mf_drop_negative : bool;
  mf_clamp : bool;
  mf_min_pair_samples : int;
  sample : (float * int) option;
  mf_precond : precond_spec;
}

let default_matfree_options =
  {
    tol = 1e-10;
    max_iter = None;
    mf_drop_negative = true;
    mf_clamp = true;
    mf_min_pair_samples = 2;
    sample = None;
    mf_precond = Pc_jacobi;
  }

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

(* Centered measurement columns, one array per path, for cheap pair
   covariances. Missing measurements (NaN) survive centering as NaN and
   are excluded pairwise in [pair_cov]; a column with no missing cells
   takes the exact historical code path, so a complete matrix is
   estimated with bit-for-bit the same operations as before the
   fault-tolerance work. Shared by the streaming and matrix-free
   estimators so both see the very same covariances. *)
let center_columns ?jobs ~np ~m y =
  let centered = Array.make np [||] in
  let has_missing = Array.make np false in
  Parallel.Pool.parallel_for ?jobs ~min_block:64 ~n:np (fun i ->
      let col = Array.init m (fun l -> Linalg.Matrix.get y l i) in
      let holes = Array.exists Float.is_nan col in
      has_missing.(i) <- holes;
      let mu =
        if not holes then Array.fold_left ( +. ) 0. col /. float_of_int m
        else begin
          let sum = ref 0. and n = ref 0 in
          Array.iter
            (fun x ->
              if not (Float.is_nan x) then begin
                sum := !sum +. x;
                incr n
              end)
            col;
          if !n = 0 then Float.nan else !sum /. float_of_int !n
        end
      in
      centered.(i) <- Array.map (fun x -> x -. mu) col);
  (centered, has_missing)

(* pairwise-complete covariance: value plus effective sample count *)
let pair_cov ~m centered has_missing i j =
  let ci = centered.(i) and cj = centered.(j) in
  if not (has_missing.(i) || has_missing.(j)) then begin
    let acc = ref 0. in
    for l = 0 to m - 1 do
      acc := !acc +. (ci.(l) *. cj.(l))
    done;
    (!acc /. float_of_int (m - 1), m)
  end
  else begin
    let acc = ref 0. and n = ref 0 in
    for l = 0 to m - 1 do
      let a = ci.(l) and b = cj.(l) in
      if not (Float.is_nan a || Float.is_nan b) then begin
        acc := !acc +. (a *. b);
        incr n
      end
    done;
    if !n < 2 then (Float.nan, !n) else (!acc /. float_of_int (!n - 1), !n)
  end

(* What both estimators start from: the non-empty pair rows of [r]
   ({!Augmented.pairs}, in flat row order) with each pair's
   pairwise-complete covariance and overlap count. Every slot is written
   once, so the arrays are the same for every [jobs]. *)
let pair_sweep ?jobs ~r y =
  let np = Sparse.rows r and m = Linalg.Matrix.rows y in
  let centered, has_missing = center_columns ?jobs ~np ~m y in
  let is, js, supports = Augmented.pairs ?jobs r in
  let n = Array.length is in
  let cov = Array.make n 0. and overlap = Array.make n 0 in
  Parallel.Pool.parallel_for ?jobs ~min_block:2048 ~n (fun p ->
      let s, o = pair_cov ~m centered has_missing is.(p) js.(p) in
      cov.(p) <- s;
      overlap.(p) <- o);
  (is, js, supports, cov, overlap)

(* A pair row enters the system iff its pair has enough overlapping
   snapshots (otherwise its covariance carries no usable signal) and its
   covariance passes the drop-negative rule. *)
let kept ~drop_negative ~min_pair_samples cov overlap p =
  overlap.(p) >= min_pair_samples && (cov.(p) >= 0. || not drop_negative)

(* Effective-sample-size accounting over the non-empty pairs. *)
let ess_of ~min_pair_samples overlap =
  let skipped = ref 0 and samples_min = ref max_int in
  Array.iter
    (fun o ->
      if o < min_pair_samples then incr skipped
      else if o < !samples_min then samples_min := o)
    overlap;
  let pairs_total = Array.length overlap in
  Obs.Metrics.add m_pairs_skipped !skipped;
  let samples_min = if !samples_min = max_int then 0 else !samples_min in
  Obs.Metrics.set g_samples_min (float_of_int samples_min);
  { pairs_total; pairs_used = pairs_total - !skipped; samples_min }

let check_inputs name ~min_pair_samples ~r ~y =
  let fail msg =
    invalid_arg (Printf.sprintf "Variance_estimator.%s: %s" name msg)
  in
  if Linalg.Matrix.cols y <> Sparse.rows r then fail "width mismatch";
  if Linalg.Matrix.rows y < 2 then fail "need at least 2 snapshots";
  if min_pair_samples < 2 then fail "min_pair_samples < 2"

let phase1_kernel name ~r ~y f =
  let np = Sparse.rows r in
  Obs.Metrics.add m_pairs (np * (np + 1) / 2);
  Obs.Probe.kernel ~hist:m_phase1
    ~args:
      [
        ("np", Obs.Field.Int np);
        ("nc", Obs.Field.Int (Sparse.cols r));
        ("m", Obs.Field.Int (Linalg.Matrix.rows y));
      ]
    ("variance_estimator." ^ name)
    f

let estimate_streaming_ess ?jobs ?(drop_negative = true) ?(clamp = true)
    ?(min_pair_samples = 2) ~r ~y () =
  check_inputs "estimate_streaming" ~min_pair_samples ~r ~y;
  phase1_kernel "estimate_streaming" ~r ~y @@ fun () ->
  let np = Sparse.rows r and nc = Sparse.cols r in
  let is, js, supports, cov, overlap = pair_sweep ?jobs ~r y in
  let kept = kept ~drop_negative ~min_pair_samples cov overlap in
  (* Accumulate G = AᵀA and b = AᵀΣ̂* over the kept rows, cut into blocks
     of the flat row range whose count depends only on the problem size
     (never on [jobs]). Determinism:
     - G's entries are counts of 1.0 increments — exact in floating
       point — so per-domain accumulators merge to the same bits in any
       order;
     - b sums real covariances, so each block owns a private partial
       vector, sums its rows in flat row order, and the partials are
       merged in block index order below.
     The same floating-point operations therefore run in the same order
     for every [jobs] value, and in the same order as a sweep over the
     whole pair triangle, whose empty rows add nothing. *)
  let npairs = Augmented.row_count ~np in
  let blocks = Parallel.Chunk.block_count npairs in
  let first = Array.make (blocks + 1) (Array.length is) in
  let p = ref 0 in
  for bk = 0 to blocks - 1 do
    let lo, _ = Parallel.Chunk.range ~blocks ~n:npairs bk in
    while
      !p < Array.length is && Augmented.row_index ~np ~i:is.(!p) ~j:js.(!p) < lo
    do
      incr p
    done;
    first.(bk) <- !p
  done;
  let partial_b = Array.init blocks (fun _ -> Array.make nc 0.) in
  let gbufs = Parallel.Pool.Buffers.create (fun () -> Array.make (nc * nc) 0.) in
  Parallel.Pool.for_blocks ?jobs blocks (fun bk ->
      let b = partial_b.(bk) in
      let g = Parallel.Pool.Buffers.borrow gbufs in
      for p = first.(bk) to first.(bk + 1) - 1 do
        if kept p then begin
          let row = Sparse.row supports p and s = cov.(p) in
          let len = Array.length row in
          for a = 0 to len - 1 do
            let ja = row.(a) in
            b.(ja) <- b.(ja) +. s;
            let base = ja * nc in
            for c = 0 to len - 1 do
              let k = base + row.(c) in
              g.(k) <- g.(k) +. 1.
            done
          done
        end
      done;
      Parallel.Pool.Buffers.return gbufs g);
  let g = Array.make (nc * nc) 0. in
  List.iter
    (fun p ->
      for k = 0 to (nc * nc) - 1 do
        g.(k) <- g.(k) +. p.(k)
      done)
    (Parallel.Pool.Buffers.all gbufs);
  let b = Array.make nc 0. in
  Array.iter
    (fun p ->
      for j = 0 to nc - 1 do
        b.(j) <- b.(j) +. p.(j)
      done)
    partial_b;
  let gm = Linalg.Matrix.init nc nc (fun i j -> g.((i * nc) + j)) in
  let f = Linalg.Cholesky.factorize_regularized gm in
  let v = Linalg.Cholesky.solve_vec f b in
  let v = if clamp then Array.map (fun x -> Float.max 0. x) v else v in
  (v, ess_of ~min_pair_samples overlap)

let estimate_streaming ?jobs ?drop_negative ?clamp ?min_pair_samples ~r ~y () =
  fst
    (estimate_streaming_ess ?jobs ?drop_negative ?clamp ?min_pair_samples ~r ~y
       ())

(* the indices [p] in [0 .. n-1] with [f p], increasing *)
let indices n f =
  let count = ref 0 in
  for p = 0 to n - 1 do
    if f p then incr count
  done;
  let out = Array.make !count 0 in
  let t = ref 0 in
  for p = 0 to n - 1 do
    if f p then begin
      out.(!t) <- p;
      incr t
    end
  done;
  out

let estimate_matfree_ess ?(options = default_matfree_options) ?jobs ~r ~y () =
  let min_pair_samples = options.mf_min_pair_samples in
  check_inputs "estimate_matfree" ~min_pair_samples ~r ~y;
  phase1_kernel "estimate_matfree" ~r ~y @@ fun () ->
  let np = Sparse.rows r and nc = Sparse.cols r in
  let is, js, supports, cov, overlap = pair_sweep ?jobs ~r y in
  let sampled =
    match options.sample with
    | None -> fun _ -> true
    | Some (fraction, seed) ->
        let sm = Augmented.sample_mask ~np ~fraction ~seed in
        fun p ->
          Bytes.get sm (Augmented.row_index ~np ~i:is.(p) ~j:js.(p)) <> '\000'
  in
  (* The live rows, in flat row order: the kept pairs that the sampling
     sketch (when on) also keeps. CGLS runs on them alone; a deleted row
     of the full system contributes nothing to either product. *)
  let live =
    indices (Array.length is) (fun p ->
        kept ~drop_negative:options.mf_drop_negative ~min_pair_samples cov
          overlap p
        && sampled p)
  in
  let a = Sparse.select_rows supports live in
  let rhs = Array.map (fun p -> cov.(p)) live in
  let cgls ?precond op precond_name =
    Linalg.Lsqr.cgls ~tol:options.tol ?max_iter:options.max_iter ?precond
      ~context:
        [
          ("phase", Obs.Field.Str "phase1");
          ("precond", Obs.Field.Str precond_name);
        ]
      op rhs
  in
  let v, stats =
    match options.mf_precond with
    | Pc_none -> cgls (Linalg.Lsqr.of_sparse a) "none"
    | Pc_jacobi ->
        (* Jacobi right preconditioner: equalize the wildly uneven column
           counts of the augmented matrix (a backbone link appears in
           almost every pair row, a leaf link in n_p of them). The
           explicit scaled_columns + w∘z recovery is kept verbatim: it is
           the historical arithmetic. *)
        let w =
          Array.map
            (fun c -> 1. /. sqrt (Float.max 1. (float_of_int c)))
            (Sparse.column_counts a)
        in
        let z, stats =
          cgls (Linalg.Lsqr.scaled_columns (Linalg.Lsqr.of_sparse a) w) "jacobi"
        in
        (Array.mapi (fun e ze -> w.(e) *. ze) z, stats)
    | Pc_block_jacobi groups ->
        (* Hierarchical path: reorder the columns into doubly-bordered
           block-diagonal form (each group contiguous, border last — the
           permutation only renumbers columns, so the rows and rhs are
           untouched), factor the per-group Gram blocks of the live rows
           independently, and run CGLS on the permuted operator under the
           block-Jacobi right preconditioner. The solution is scattered
           back through the same permutation. Gram entries are exact
           integer counts, so every group fills its own block the same
           way for every [jobs]. *)
        let order = Array.concat (Array.to_list groups) in
        let op = Linalg.Lsqr.of_sparse (Sparse.permute_cols a order) in
        let grams =
          Array.make (Array.length groups) (Linalg.Matrix.zeros 0 0)
        in
        Parallel.Pool.parallel_for ?jobs ~min_block:1 ~n:(Array.length groups)
          (fun g -> grams.(g) <- Sparse.gram_block a groups.(g));
        let blocks =
          let off = ref 0 in
          Array.map2
            (fun idx g ->
              let s = Array.length idx in
              let contiguous = Array.init s (fun t -> !off + t) in
              off := !off + s;
              (contiguous, g))
            groups grams
          |> Array.to_list
          |> List.filter (fun (idx, _) -> Array.length idx > 0)
          |> Array.of_list
        in
        let pc = Linalg.Precond.block_jacobi ?jobs ~cols:nc blocks in
        let zp, stats = cgls ~precond:pc op "block_jacobi" in
        let v = Array.make nc 0. in
        Array.iteri (fun k j -> v.(j) <- zp.(k)) order;
        (v, stats)
  in
  let v = if options.mf_clamp then Array.map (fun x -> Float.max 0. x) v else v in
  Obs.Metrics.add m_cgls_iters stats.Linalg.Conjugate_gradient.iterations;
  (v, ess_of ~min_pair_samples overlap, stats)

let estimate ?(options = default_options) ?jobs ~r ~y () =
  match options.method_ with
  | Normal_equations ->
      estimate_streaming ?jobs ~drop_negative:options.drop_negative
        ~clamp:options.clamp ~r ~y ()
  | Dense_qr ->
      let a = Augmented.build ?jobs r in
      let sigma_star = Covariance.sigma_star ?jobs y in
      solve ~options ?jobs ~a ~sigma_star ()
