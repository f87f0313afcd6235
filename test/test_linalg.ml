(* Unit and property tests for the dense/sparse linear algebra substrate. *)

open Linalg

let check_float = Alcotest.(check (float 1e-9))

let check_floatish msg = Alcotest.(check (float 1e-6)) msg

let vec = Alcotest.testable Vector.pp (Vector.approx_equal ~tol:1e-9)

let mat = Alcotest.testable Matrix.pp (Matrix.approx_equal ~tol:1e-9)

(* --- Vector ----------------------------------------------------------- *)

let test_vector_basic () =
  let x = Vector.of_list [ 1.; 2.; 3. ] in
  let y = Vector.of_list [ 4.; 5.; 6. ] in
  Alcotest.check vec "add" (Vector.of_list [ 5.; 7.; 9. ]) (Vector.add x y);
  Alcotest.check vec "sub" (Vector.of_list [ -3.; -3.; -3. ]) (Vector.sub x y);
  Alcotest.check vec "scale" (Vector.of_list [ 2.; 4.; 6. ]) (Vector.scale 2. x);
  check_float "dot" 32. (Vector.dot x y);
  check_float "sum" 6. (Vector.sum x);
  check_float "mean" 2. (Vector.mean x);
  check_float "norm2" (sqrt 14.) (Vector.norm2 x);
  check_float "norm_inf" 3. (Vector.norm_inf x);
  Alcotest.check vec "hadamard" (Vector.of_list [ 4.; 10.; 18. ]) (Vector.hadamard x y)

let test_vector_axpy () =
  let x = Vector.of_list [ 1.; 2. ] in
  let y = Vector.of_list [ 10.; 20. ] in
  Vector.axpy 3. x y;
  Alcotest.check vec "axpy" (Vector.of_list [ 13.; 26. ]) y

let test_vector_dim_mismatch () =
  let x = Vector.zeros 2 and y = Vector.zeros 3 in
  Alcotest.check_raises "add" (Invalid_argument "Vector.add: dimension mismatch")
    (fun () -> ignore (Vector.add x y));
  Alcotest.check_raises "dot" (Invalid_argument "Vector.dot: dimension mismatch")
    (fun () -> ignore (Vector.dot x y))

let test_vector_empty_mean () =
  Alcotest.check_raises "mean of empty"
    (Invalid_argument "Vector.mean: empty vector") (fun () ->
      ignore (Vector.mean [||]))

let test_vector_extremes () =
  let x = Vector.of_list [ 3.; -1.; 7.; 7.; 0. ] in
  Alcotest.(check int) "max_index" 2 (Vector.max_index x);
  Alcotest.(check int) "min_index" 1 (Vector.min_index x)

let test_vector_norm2_overflow () =
  let big = 1e200 in
  let x = Vector.of_list [ big; big ] in
  check_floatish "scaled norm" (big *. sqrt 2. /. 1e200) (Vector.norm2 x /. 1e200)

let test_sort_indices () =
  let x = Vector.of_list [ 3.; 1.; 2. ] in
  Alcotest.(check (array int)) "ascending" [| 1; 2; 0 |] (Vector.sort_indices x);
  Alcotest.(check (array int)) "descending" [| 0; 2; 1 |]
    (Vector.sort_indices ~descending:true x);
  (* stability on ties *)
  let y = Vector.of_list [ 1.; 1.; 0. ] in
  Alcotest.(check (array int)) "stable" [| 2; 0; 1 |] (Vector.sort_indices y)

let test_dist2 () =
  let x = Vector.of_list [ 0.; 3. ] and y = Vector.of_list [ 4.; 0. ] in
  check_float "dist" 5. (Vector.dist2 x y)

(* --- Matrix ----------------------------------------------------------- *)

let test_matrix_basic () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_float "get" 3. (Matrix.get m 1 0);
  Alcotest.check vec "row" [| 3.; 4. |] (Matrix.row m 1);
  Alcotest.check vec "col" [| 2.; 4. |] (Matrix.col m 1);
  Alcotest.check mat "transpose"
    (Matrix.of_arrays [| [| 1.; 3. |]; [| 2.; 4. |] |])
    (Matrix.transpose m);
  Alcotest.check mat "identity mul" m (Matrix.mul m (Matrix.identity 2))

let test_matrix_mul () =
  let a = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  let b = Matrix.of_arrays [| [| 7.; 8. |]; [| 9.; 10. |]; [| 11.; 12. |] |] in
  Alcotest.check mat "a*b"
    (Matrix.of_arrays [| [| 58.; 64. |]; [| 139.; 154. |] |])
    (Matrix.mul a b);
  Alcotest.check vec "a*x" [| 14.; 32. |]
    (Matrix.mul_vec a (Vector.of_list [ 1.; 2.; 3. ]));
  Alcotest.check vec "aT*y" [| 9.; 12.; 15. |]
    (Matrix.tmul_vec a (Vector.of_list [ 1.; 2. ]))

let test_matrix_gram () =
  let a = Matrix.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |] |] in
  let g = Matrix.gram a in
  Alcotest.check mat "gram = aT a" (Matrix.mul (Matrix.transpose a) a) g;
  Alcotest.(check bool) "symmetric" true (Matrix.is_symmetric g)

let test_matrix_select_drop () =
  let m = Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  Alcotest.check mat "select"
    (Matrix.of_arrays [| [| 3.; 1. |]; [| 6.; 4. |] |])
    (Matrix.select_cols m [| 2; 0 |]);
  Alcotest.check mat "drop"
    (Matrix.of_arrays [| [| 2. |]; [| 5. |] |])
    (Matrix.drop_cols m [ 0; 2 ])

let test_matrix_stack () =
  let a = Matrix.of_arrays [| [| 1. |]; [| 2. |] |] in
  let b = Matrix.of_arrays [| [| 3. |]; [| 4. |] |] in
  Alcotest.check mat "hstack"
    (Matrix.of_arrays [| [| 1.; 3. |]; [| 2.; 4. |] |])
    (Matrix.hstack a b);
  Alcotest.check mat "vstack"
    (Matrix.of_arrays [| [| 1. |]; [| 2. |]; [| 3. |]; [| 4. |] |])
    (Matrix.vstack a b)

let test_matrix_diag () =
  let d = Matrix.diag (Vector.of_list [ 1.; 2. ]) in
  Alcotest.check mat "diag" (Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 2. |] |]) d;
  Alcotest.check vec "diagonal" [| 1.; 2. |] (Matrix.diagonal d)

let test_matrix_ragged () =
  Alcotest.check_raises "ragged" (Invalid_argument "Matrix.of_arrays: ragged rows")
    (fun () -> ignore (Matrix.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

(* --- QR ---------------------------------------------------------------- *)

let test_qr_solve_square () =
  let a = Matrix.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Qr.solve a (Vector.of_list [ 5.; 10. ]) in
  Alcotest.check vec "solution" (Vector.of_list [ 1.; 3. ]) x

let test_qr_least_squares () =
  (* Overdetermined: fit y = a + b t at t = 0,1,2 with y = 1,2,4 (not exact). *)
  let a =
    Matrix.of_arrays [| [| 1.; 0. |]; [| 1.; 1. |]; [| 1.; 2. |] |]
  in
  let x = Qr.solve a (Vector.of_list [ 1.; 2.; 4. ]) in
  (* closed form: intercept 5/6, slope 3/2 *)
  check_floatish "intercept" (5. /. 6.) x.(0);
  check_floatish "slope" 1.5 x.(1)

let test_qr_rank () =
  let full = Matrix.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |]; [| 1.; 1. |] |] in
  Alcotest.(check int) "full rank" 2 (Qr.matrix_rank full);
  let deficient =
    Matrix.of_arrays [| [| 1.; 2.; 3. |]; [| 2.; 4.; 6. |]; [| 1.; 1.; 1. |] |]
  in
  Alcotest.(check int) "rank 2" 2 (Qr.matrix_rank deficient);
  Alcotest.(check int) "zero matrix" 0 (Qr.matrix_rank (Matrix.zeros 3 3))

let test_qr_r_factor () =
  let a = Matrix.of_arrays [| [| 3.; 1. |]; [| 4.; 2. |] |] in
  let f = Qr.factorize a in
  let r = Qr.r f in
  (* |r11| = norm of first column *)
  check_floatish "r11" 5. (Float.abs (Matrix.get r 0 0));
  check_floatish "r below diag" 0. (Matrix.get r 1 0)

let test_qr_pivots () =
  let a = Matrix.of_arrays [| [| 0.; 5. |]; [| 0.; 1. |] |] in
  let f = Qr.factorize_pivoted a in
  (* the larger column (index 1) is pivoted first *)
  Alcotest.(check (array int)) "pivot order" [| 1; 0 |] (Qr.pivots f);
  let unpivoted = Qr.factorize a in
  Alcotest.(check (array int)) "identity without pivoting" [| 0; 1 |]
    (Qr.pivots unpivoted)

let test_qr_singular_raises () =
  let a = Matrix.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  match Qr.solve a (Vector.of_list [ 1.; 1. ]) with
  | _ -> Alcotest.fail "expected failure on singular system"
  | exception Failure _ -> ()

(* --- Cholesky ----------------------------------------------------------- *)

let test_cholesky_solve () =
  (* solve [[4,2],[2,3]] x = [10, 8] -> x = [1.75, 1.5] *)
  let m = Matrix.of_arrays [| [| 4.; 2. |]; [| 2.; 3. |] |] in
  let x = Cholesky.solve m (Vector.of_list [ 10.; 8. ]) in
  check_floatish "x0" 1.75 x.(0);
  check_floatish "x1" 1.5 x.(1)

let test_cholesky_not_pd () =
  let m = Matrix.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  Alcotest.check_raises "not pd" Cholesky.Not_positive_definite (fun () ->
      ignore (Cholesky.factorize (Cholesky.of_matrix m)))

let test_cholesky_regularized () =
  (* Singular PSD matrix: regularization must make it solvable. *)
  let m = Matrix.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let f = Cholesky.factorize_regularized (Cholesky.of_matrix m) in
  let x = Cholesky.solve_vec f (Vector.of_list [ 2.; 2. ]) in
  check_floatish "x0+x1 ~ 2" 2. (x.(0) +. x.(1))

(* The ridge grows tenfold from 1e-10 and stops after 1e-1 of the mean
   |diagonal| (here 0.525 and 0.53): diag(1, -0.05) needs that last step,
   diag(1, -0.06) is out of reach. The dense oracle pins the same
   schedule. *)
let test_cholesky_ridge_schedule () =
  let d x = Matrix.diag [| 1.; x |] in
  let pivot l = Matrix.get l 1 1 in
  let f = Cholesky.factorize_regularized (Cholesky.of_matrix (d (-0.05))) in
  Alcotest.(check (float 0.)) "second pivot at ridge 1e-1" 0.050000000000000024
    (pivot (Cholesky.lower f));
  let f = Oracle.Cholesky.factorize_regularized (d (-0.05)) in
  Alcotest.(check (float 0.)) "oracle: same pivot" 0.050000000000000024
    (pivot (Oracle.Cholesky.lower f));
  Alcotest.check_raises "beyond the last ridge" Cholesky.Not_positive_definite
    (fun () ->
      ignore (Cholesky.factorize_regularized (Cholesky.of_matrix (d (-0.06)))));
  Alcotest.check_raises "oracle: beyond the last ridge"
    Cholesky.Not_positive_definite (fun () ->
      ignore (Oracle.Cholesky.factorize_regularized (d (-0.06))));
  Alcotest.check_raises "ordered: beyond the last ridge"
    Cholesky.Not_positive_definite (fun () ->
      ignore
        (Cholesky.solve_ordered (Cholesky.of_matrix (d (-0.06))) [| 1.; 1. |]))

(* Phase 2's plan factors once, in order, with no ridge: a singular Gram
   raises there, where the one-shot regularized solve of Phase 1 answers;
   and that one-shot solve is the factor-once path, bit for bit. *)
let test_cholesky_ordered_factor () =
  let m =
    Matrix.of_arrays [| [| 1.; 1.; 0. |]; [| 1.; 1.; 0. |]; [| 0.; 0.; 2. |] |]
  in
  let b = [| 1.; 1.; 3. |] in
  Alcotest.check_raises "no ridge" Cholesky.Not_positive_definite (fun () ->
      ignore
        (Cholesky.factorize_ordered Cholesky.factorize (Cholesky.of_matrix m)));
  let f =
    Cholesky.factorize_ordered Cholesky.factorize_regularized
      (Cholesky.of_matrix m)
  in
  Alcotest.(check bool) "factor once = one-shot" true
    (Generators.vec_bits_equal
       (Cholesky.solve_ordered_vec f b)
       (Cholesky.solve_ordered (Cholesky.of_matrix m) b));
  Alcotest.check_raises "rhs length"
    (Invalid_argument "Cholesky.solve_ordered_vec: dimension mismatch")
    (fun () -> ignore (Cholesky.solve_ordered_vec f [| 1.; 1. |]))

let test_cholesky_bad_pattern () =
  let sym cols vals = { Cholesky.diag = [| 1.; 1. |]; cols; vals } in
  let bad name s =
    (match Cholesky.factorize s with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ());
    match Cholesky.solve_ordered s [| 1.; 1. |] with
    | _ -> Alcotest.failf "%s: accepted by solve_ordered" name
    | exception Invalid_argument _ -> ()
  in
  bad "entry on the diagonal" (sym [| [||]; [| 1 |] |] [| [||]; [| 0.5 |] |]);
  bad "entry above it" (sym [| [| 1 |]; [||] |] [| [| 0.5 |]; [||] |]);
  bad "lengths disagree" (sym [| [||]; [| 0 |] |] [| [||]; [||] |]);
  bad "row count" { Cholesky.diag = [| 1. |]; cols = [||]; vals = [||] }

let test_cholesky_log_det () =
  let m = Matrix.of_arrays [| [| 4.; 0. |]; [| 0.; 9. |] |] in
  let f = Cholesky.factorize (Cholesky.of_matrix m) in
  check_floatish "log det" (log 36.) (Cholesky.log_det f)

(* --- Iterative solver tolerance ------------------------------------------ *)

(* a tolerance outside (0, 1) — NaN and infinity included — is refused
   by CGLS instead of ending the solve at the start *)
let test_iterative_bad_tolerance () =
  let m = Matrix.identity 3 in
  let b = Vector.of_list [ 1.; 2.; 3. ] in
  List.iter
    (fun (tol, msg) ->
      Alcotest.check_raises
        (Printf.sprintf "cgls tol %g" tol)
        (Invalid_argument ("Lsqr.cgls: " ^ msg))
        (fun () -> ignore (Lsqr.cgls ~tol (Lsqr.of_dense m) b)))
    [
      (0., "non-positive tolerance");
      (-1., "non-positive tolerance");
      (Float.neg_infinity, "non-positive tolerance");
      (Float.nan, "tolerance not a number in (0, 1)");
      (Float.infinity, "tolerance not a number in (0, 1)");
      (1., "tolerance not a number in (0, 1)");
    ]

(* --- Sparse ------------------------------------------------------------- *)

let test_sparse_basic () =
  let s = Sparse.create ~cols:4 [| [| 0; 2 |]; [| 1; 2; 3 |]; [||] |] in
  Alcotest.(check int) "rows" 3 (Sparse.rows s);
  Alcotest.(check int) "cols" 4 (Sparse.cols s);
  Alcotest.(check int) "nnz" 5 (Sparse.nnz s);
  Alcotest.(check bool) "get 0 2" true (Sparse.get s 0 2);
  Alcotest.(check bool) "get 0 1" false (Sparse.get s 0 1);
  Alcotest.(check (array int)) "col counts" [| 1; 1; 2; 1 |] (Sparse.column_counts s)

let test_sparse_invalid () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Sparse.create: row not strictly increasing or out of range")
    (fun () -> ignore (Sparse.create ~cols:3 [| [| 2; 1 |] |]))

let test_sparse_row_product () =
  Alcotest.(check (array int)) "intersection" [| 1; 4 |]
    (Sparse.row_product [| 0; 1; 4 |] [| 1; 2; 4; 5 |]);
  Alcotest.(check (array int)) "disjoint" [||]
    (Sparse.row_product [| 0 |] [| 1 |])

let test_sparse_mul () =
  let s = Sparse.create ~cols:3 [| [| 0; 1 |]; [| 2 |] |] in
  Alcotest.check vec "mul_vec" [| 3.; 7. |]
    (Sparse.mul_vec s (Vector.of_list [ 1.; 2.; 7. ]));
  Alcotest.check vec "tmul_vec" [| 1.; 1.; 2. |]
    (Sparse.tmul_vec s (Vector.of_list [ 1.; 2. ]))

let test_sparse_dense_roundtrip () =
  let s = Sparse.create ~cols:3 [| [| 0; 2 |]; [| 1 |] |] in
  Alcotest.check mat "dense"
    (Matrix.of_arrays [| [| 1.; 0.; 1. |]; [| 0.; 1.; 0. |] |])
    (Sparse.to_dense s)

let test_sparse_select_cols () =
  let s = Sparse.create ~cols:4 [| [| 0; 2; 3 |]; [| 1; 3 |] |] in
  let s' = Sparse.select_cols s [| 3; 0 |] in
  (* new col 0 = old 3, new col 1 = old 0 *)
  Alcotest.(check bool) "r0 has old3" true (Sparse.get s' 0 0);
  Alcotest.(check bool) "r0 has old0" true (Sparse.get s' 0 1);
  Alcotest.(check bool) "r1 has old3" true (Sparse.get s' 1 0);
  Alcotest.(check bool) "r1 lost old1" false (Sparse.get s' 1 1)

let test_sparse_transpose () =
  let s = Sparse.create ~cols:3 [| [| 0; 1 |]; [| 1; 2 |] |] in
  let t = Sparse.transpose s in
  Alcotest.check mat "transpose agrees with dense"
    (Matrix.transpose (Sparse.to_dense s))
    (Sparse.to_dense t)

let test_sparse_normal_equations () =
  let s = Sparse.create ~cols:2 [| [| 0 |]; [| 1 |]; [| 0; 1 |] |] in
  Alcotest.(check bool) "gram" true
    (Sparse.gram_lower s = Cholesky.of_matrix (Matrix.gram (Sparse.to_dense s)));
  let b = Vector.of_list [ 1.; 2.; 3.5 ] in
  let x = Sparse.least_squares s b in
  let dense_x = Qr.solve (Sparse.to_dense s) b in
  Alcotest.(check bool) "matches dense QR" true (Vector.approx_equal ~tol:1e-6 x dense_x)

(* --- Exact_basis ------------------------------------------------------- *)

let test_exact_basis_independence () =
  let b = Exact_basis.create ~dim:3 in
  Alcotest.(check bool) "e1" true (Exact_basis.try_add b [| 0 |]);
  Alcotest.(check bool) "e2" true (Exact_basis.try_add b [| 1 |]);
  Alcotest.(check bool) "e1+e2 dependent" false (Exact_basis.try_add b [| 0; 1 |]);
  Alcotest.(check int) "size" 2 (Exact_basis.size b);
  Alcotest.(check bool) "e3 independent" true (Exact_basis.try_add b [| 2 |]);
  Alcotest.(check bool) "now full" false (Exact_basis.try_add b [| 0; 1; 2 |]);
  (* dependent over GF(2) (they sum to zero there), independent over the
     rationals: the field is not a small one *)
  let c = Exact_basis.create ~dim:3 in
  Alcotest.(check (list bool)) "e1+e2, e2+e3, e1+e3" [ true; true; true ]
    (List.map (Exact_basis.try_add c) [ [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] ])

let test_exact_basis_zero () =
  let b = Exact_basis.create ~dim:2 in
  Alcotest.(check bool) "zero dependent" false (Exact_basis.try_add b [||]);
  Alcotest.(check int) "size" 0 (Exact_basis.size b)

let test_exact_basis_in_span () =
  let b = Exact_basis.create ~dim:3 in
  ignore (Exact_basis.try_add b [| 0; 1 |]);
  ignore (Exact_basis.try_add b [| 1 |]);
  Alcotest.(check bool) "span yes" true (Exact_basis.in_span b [| 0 |]);
  Alcotest.(check bool) "span no" false (Exact_basis.in_span b [| 0; 2 |]);
  Alcotest.(check bool) "zero in span" true (Exact_basis.in_span b [||]);
  Alcotest.(check int) "unchanged" 2 (Exact_basis.size b)

let test_exact_basis_invalid () =
  let b = Exact_basis.create ~dim:3 in
  List.iter
    (fun s ->
      match Exact_basis.try_add b s with
      | _ -> Alcotest.fail "accepted a bad support"
      | exception Invalid_argument _ -> ())
    [ [| 1; 0 |]; [| 1; 1 |]; [| 3 |]; [| -1 |] ];
  Alcotest.(check int) "nothing added" 0 (Exact_basis.size b);
  Alcotest.(check bool) "scratch left clear" true (Exact_basis.try_add b [| 2 |])

(* --- Properties ---------------------------------------------------------- *)

let float_small = QCheck.Gen.float_range (-100.) 100.

let gen_vec n = QCheck.Gen.(array_size (return n) float_small)

let gen_square_matrix =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return (n * n)) float_small >>= fun data ->
    return (n, data))

let prop_qr_reconstructs =
  QCheck.Test.make ~count:100 ~name:"QR: least squares residual is orthogonal"
    QCheck.(
      make
        Gen.(
          int_range 1 6 >>= fun n ->
          gen_vec (n + 3) >>= fun b ->
          array_size (return ((n + 3) * n)) float_small >>= fun data ->
          return (n, data, b)))
    (fun (n, data, b) ->
      let m = n + 3 in
      let a = Matrix.init m n (fun i j -> data.((i * n) + j)) in
      match Qr.solve a b with
      | exception Failure _ -> QCheck.assume_fail ()
      | x ->
          (* Normal equations: Aᵀ(Ax − b) = 0 *)
          let r = Vector.sub (Matrix.mul_vec a x) b in
          let g = Matrix.tmul_vec a r in
          Vector.norm_inf g < 1e-6 *. (1. +. Vector.norm_inf b))

let prop_cholesky_solves =
  QCheck.Test.make ~count:100 ~name:"Cholesky: L Lᵀ x = b solved correctly"
    (QCheck.make gen_square_matrix) (fun (n, data) ->
      let a = Matrix.init n n (fun i j -> data.((i * n) + j)) in
      (* make SPD: aᵀa + I *)
      let spd = Matrix.add (Matrix.gram a) (Matrix.identity n) in
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let x = Cholesky.solve spd b in
      let r = Vector.sub (Matrix.mul_vec spd x) b in
      Vector.norm_inf r < 1e-6 *. (1. +. Vector.norm_inf b))

(* The sparse kernel against the dense one in [Oracle.Cholesky]: the same
   Not_positive_definite outcome, and otherwise the same L and the same
   solution, bit for bit, plain and regularized. Inputs hold no -0.0
   ([x +. 0.] turns -0.0 into 0.0 and leaves every other float alone). *)
let outcome factor lower solve_vec b =
  match factor () with
  | f -> Some (lower f, solve_vec f b)
  | exception Cholesky.Not_positive_definite -> None

let same_outcome a b =
  match (a, b) with
  | None, None -> true
  | Some (l1, x1), Some (l2, x2) ->
      Generators.matrix_bits_equal l1 l2 && Generators.vec_bits_equal x1 x2
  | _ -> false

let kernels_agree s m b =
  let sparse factor =
    outcome (fun () -> factor s) Cholesky.lower Cholesky.solve_vec b
  in
  let dense factor =
    outcome (fun () -> factor m) Oracle.Cholesky.lower Oracle.Cholesky.solve_vec b
  in
  same_outcome (sparse Cholesky.factorize) (dense Oracle.Cholesky.factorize)
  && same_outcome
       (sparse (fun s -> Cholesky.factorize_regularized s))
       (dense (fun m -> Oracle.Cholesky.factorize_regularized m))

let gen_rhs n =
  QCheck.Gen.(array_size (return n) (map (fun x -> x +. 0.) float_small))

(* 0/1 Gram matrices, rank-deficient ones and empty columns included:
   the generator's rows, their Gram and its right-hand side *)
let gen_gram =
  QCheck.Gen.(
    int_range 0 12 >>= fun n ->
    (if n = 0 then return []
     else
       list_size (int_range 0 (2 * n))
         (list_size (int_range 0 n) (int_range 0 (n - 1))))
    >>= fun rows ->
    let row l = Array.of_list (List.sort_uniq compare l) in
    let a = Sparse.create ~cols:n (Array.of_list (List.map row rows)) in
    gen_rhs n >>= fun b -> return (a, Matrix.gram (Sparse.to_dense a), b))

(* small dense SPD matrices (AᵀA + I), some off-diagonal pairs zeroed
   and, in about a quarter of the draws, one symmetric pair made NaN *)
let gen_dense_spd =
  QCheck.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return (n * n)) float_small >>= fun data ->
    array_size (return (n * n)) (float_bound_inclusive 1.) >>= fun zero ->
    int_range 0 (4 * n * n) >>= fun nan_at ->
    gen_rhs n >>= fun b ->
    let a = Matrix.init n n (fun i j -> data.((i * n) + j)) in
    let m = Matrix.add (Matrix.gram a) (Matrix.identity n) in
    let set i j x =
      Matrix.set m i j x;
      Matrix.set m j i x
    in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        if zero.((i * n) + j) < 0.3 then set i j 0.
      done
    done;
    if nan_at < n * n then set (nan_at / n) (nan_at mod n) Float.nan;
    return (m, b))

let print_system (m, b) =
  Printf.sprintf "G = %s, b = %s"
    (Format.asprintf "%a" Matrix.pp m)
    (String.concat " " (Array.to_list (Array.map string_of_float b)))

let prop_cholesky_gram_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:
      "Cholesky: 0/1 Gram matrices (rank-deficient, empty columns, n = 0, 1) \
       factor and solve bit for bit as the dense oracle"
    (QCheck.make gen_gram)
    (fun (a, g, b) ->
      let s = Sparse.gram_lower ~jobs:1 a in
      s = Cholesky.of_matrix g && kernels_agree s g b)

let prop_cholesky_dense_matches_oracle =
  QCheck.Test.make ~count:300
    ~name:
      "Cholesky: small dense SPD matrices, some entries zeroed or NaN, \
       through of_matrix factor and solve bit for bit as the dense oracle"
    (QCheck.make gen_dense_spd)
    (fun (m, b) -> kernels_agree (Cholesky.of_matrix m) m b)

(* The ordered entry point against the dense oracle on P G Pᵀ and P b,
   scattered back, with P read off the dense matrix: the same solution
   bit for bit, or Not_positive_definite from both (every NaN draw, and
   zeroed draws beyond the last ridge). *)
let prop_cholesky_ordered_matches_oracle =
  QCheck.Test.make ~count:600
    ~name:
      "Cholesky.solve_ordered: 0/1 Grams and dense SPD matrices solve bit \
       for bit as the dense oracle on P G Pᵀ, scattered back"
    (QCheck.make ~print:print_system
       QCheck.Gen.(oneof [ map (fun (_, g, b) -> (g, b)) gen_gram; gen_dense_spd ]))
    (fun (m, b) ->
      let outcome solve =
        match solve () with
        | x -> Some x
        | exception Cholesky.Not_positive_definite -> None
      in
      match
        ( outcome (fun () -> Cholesky.solve_ordered (Cholesky.of_matrix m) b),
          outcome (fun () -> Oracle.Cholesky.solve_ordered m b) )
      with
      | None, None -> true
      | Some x, Some y -> Generators.vec_bits_equal x y
      | _ -> false)

let prop_sparse_matches_dense =
  QCheck.Test.make ~count:100 ~name:"Sparse: mul_vec matches dense"
    QCheck.(
      make
        Gen.(
          int_range 1 10 >>= fun cols ->
          list_size (int_range 1 8) (list_size (int_range 0 cols) (int_range 0 (cols - 1)))
          >>= fun rows ->
          gen_vec cols >>= fun x -> return (cols, rows, x)))
    (fun (cols, rows, x) ->
      let mk_row l = List.sort_uniq compare l |> Array.of_list in
      let rows = Array.of_list (List.map mk_row rows) in
      let s = Sparse.create ~cols rows in
      let d = Sparse.to_dense s in
      Vector.approx_equal ~tol:1e-9 (Sparse.mul_vec s x) (Matrix.mul_vec d x)
      && Vector.approx_equal ~tol:1e-9
           (Sparse.tmul_vec s (Array.make (Sparse.rows s) 1.))
           (Matrix.tmul_vec d (Array.make (Sparse.rows s) 1.)))

(* the rank of the 0/1 vectors with these supports, over GF(2^31 - 1) *)
let exact_rank ~dim supports =
  let b = Exact_basis.create ~dim in
  Array.iter (fun s -> ignore (Exact_basis.try_add b s)) supports;
  Exact_basis.size b

let prop_rank_bounded =
  QCheck.Test.make ~count:100 ~name:"QR rank ≤ min(m,n) and the exact rank agrees"
    QCheck.(
      make
        Gen.(
          int_range 1 6 >>= fun m ->
          int_range 1 6 >>= fun n ->
          array_size (return (m * n)) (Gen.oneofl [ 0.; 1. ]) >>= fun data ->
          return (m, n, data)))
    (fun (m, n, data) ->
      let a = Matrix.init m n (fun i j -> data.((i * n) + j)) in
      let r = Qr.matrix_rank a in
      let column j =
        Array.of_list (List.filter (fun i -> Matrix.get a i j = 1.) (List.init m Fun.id))
      in
      r <= min m n && r = exact_rank ~dim:m (Array.init n column))

(* The exact rank equals the rational one unless the prime divides every
   maximal minor, which the float rank would expose. Each routing family
   is checked whole and with a seeded half of its rows dropped (mostly
   rank-deficient), and Mils' span test against the float one,
   rank [R; 1_S] = rank R, on a random window of every row. *)
let prop_exact_rank_on_routing =
  QCheck.Test.make ~count:40
    ~name:
      "exact rank = QR rank and Mils.identifiable = QR span test, on every \
       routing family, whole and with half the rows dropped"
    Generators.seed_arb
    (fun seed ->
      let rng = Nstats.Rng.create (seed + 11) in
      let full = Generators.random_routing seed in
      let np = Sparse.rows full in
      let half = Nstats.Rng.sample_without_replacement rng (np / 2) np in
      Array.sort Int.compare half;
      List.for_all
        (fun r ->
          let d = Sparse.to_dense r in
          let rank = Qr.matrix_rank d in
          let mils = Core.Mils.prepare r in
          let window i =
            let row = Sparse.row r i in
            let n = Array.length row in
            let start = Nstats.Rng.int rng n in
            Array.sub row start (1 + Nstats.Rng.int rng (n - start))
          in
          let float_span s =
            let stacked =
              Matrix.init (Matrix.rows d + 1) (Matrix.cols d) (fun i j ->
                  if i < Matrix.rows d then Matrix.get d i j
                  else if Array.mem j s then 1.
                  else 0.)
            in
            Qr.matrix_rank stacked = rank
          in
          rank = exact_rank ~dim:(Sparse.rows r) (Sparse.cols_index r)
          && List.for_all
               (fun i ->
                 Array.length (Sparse.row r i) = 0
                 ||
                 let s = window i in
                 Core.Mils.identifiable mils s = float_span s)
               (List.init (Sparse.rows r) Fun.id))
        [ full; Sparse.select_rows full half ])

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_qr_reconstructs; prop_cholesky_solves;
      prop_cholesky_gram_matches_oracle; prop_cholesky_dense_matches_oracle;
      prop_cholesky_ordered_matches_oracle; prop_sparse_matches_dense;
      prop_rank_bounded; prop_exact_rank_on_routing ]

let () =
  Alcotest.run "linalg"
    [
      ( "vector",
        [
          Alcotest.test_case "basic ops" `Quick test_vector_basic;
          Alcotest.test_case "axpy" `Quick test_vector_axpy;
          Alcotest.test_case "dimension mismatch" `Quick test_vector_dim_mismatch;
          Alcotest.test_case "empty mean" `Quick test_vector_empty_mean;
          Alcotest.test_case "extremes" `Quick test_vector_extremes;
          Alcotest.test_case "norm2 overflow" `Quick test_vector_norm2_overflow;
          Alcotest.test_case "sort_indices" `Quick test_sort_indices;
          Alcotest.test_case "dist2" `Quick test_dist2;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "basic" `Quick test_matrix_basic;
          Alcotest.test_case "mul" `Quick test_matrix_mul;
          Alcotest.test_case "gram" `Quick test_matrix_gram;
          Alcotest.test_case "select/drop cols" `Quick test_matrix_select_drop;
          Alcotest.test_case "stack" `Quick test_matrix_stack;
          Alcotest.test_case "diag" `Quick test_matrix_diag;
          Alcotest.test_case "ragged input" `Quick test_matrix_ragged;
        ] );
      ( "qr",
        [
          Alcotest.test_case "square solve" `Quick test_qr_solve_square;
          Alcotest.test_case "least squares" `Quick test_qr_least_squares;
          Alcotest.test_case "rank" `Quick test_qr_rank;
          Alcotest.test_case "R factor" `Quick test_qr_r_factor;
          Alcotest.test_case "pivots" `Quick test_qr_pivots;
          Alcotest.test_case "singular raises" `Quick test_qr_singular_raises;
        ] );
      ( "cholesky",
        [
          Alcotest.test_case "solve" `Quick test_cholesky_solve;
          Alcotest.test_case "not positive definite" `Quick test_cholesky_not_pd;
          Alcotest.test_case "regularized" `Quick test_cholesky_regularized;
          Alcotest.test_case "ridge schedule" `Quick test_cholesky_ridge_schedule;
          Alcotest.test_case "invalid pattern" `Quick test_cholesky_bad_pattern;
          Alcotest.test_case "ordered factor, no ridge" `Quick
            test_cholesky_ordered_factor;
          Alcotest.test_case "log det" `Quick test_cholesky_log_det;
        ] );
      ( "conjugate_gradient",
        [
          Alcotest.test_case "tolerance outside (0, 1)" `Quick
            test_iterative_bad_tolerance;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "basic" `Quick test_sparse_basic;
          Alcotest.test_case "invalid rows" `Quick test_sparse_invalid;
          Alcotest.test_case "row product" `Quick test_sparse_row_product;
          Alcotest.test_case "mul" `Quick test_sparse_mul;
          Alcotest.test_case "dense roundtrip" `Quick test_sparse_dense_roundtrip;
          Alcotest.test_case "select cols" `Quick test_sparse_select_cols;
          Alcotest.test_case "transpose" `Quick test_sparse_transpose;
          Alcotest.test_case "normal equations" `Quick test_sparse_normal_equations;
        ] );
      ( "exact_basis",
        [
          Alcotest.test_case "independence" `Quick test_exact_basis_independence;
          Alcotest.test_case "zero vector" `Quick test_exact_basis_zero;
          Alcotest.test_case "in_span" `Quick test_exact_basis_in_span;
          Alcotest.test_case "invalid support" `Quick test_exact_basis_invalid;
        ] );
      ("properties", properties);
    ]
