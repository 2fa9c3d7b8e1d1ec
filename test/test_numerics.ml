(* Unit and property tests for the cml_numerics library: vector
   helpers, dense LU, triplet/CSC compression and the sparse LU,
   cross-checked against the dense solver as oracle. *)

let approx ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_vec_approx ?(eps = 1e-9) msg expected actual =
  Alcotest.(check int) (msg ^ " length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if not (approx ~eps e actual.(i)) then
        Alcotest.failf "%s: index %d: expected %.12g, got %.12g" msg i e actual.(i))
    expected

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_create () =
  let v = Cml_numerics.Vec.create 4 in
  check_vec_approx "zeros" [| 0.; 0.; 0.; 0. |] v

let test_vec_axpy () =
  let x = [| 1.; 2.; 3. |] and y = [| 10.; 20.; 30. |] in
  Cml_numerics.Vec.axpy 2.0 x y;
  check_vec_approx "axpy" [| 12.; 24.; 36. |] y

let test_vec_dot () =
  Alcotest.(check (float 1e-12)) "dot" 32.0 (Cml_numerics.Vec.dot [| 1.; 2.; 3. |] [| 4.; 5.; 6. |])

let test_vec_norms () =
  Alcotest.(check (float 1e-12)) "inf" 5.0 (Cml_numerics.Vec.norm_inf [| 3.; -5.; 1. |]);
  Alcotest.(check (float 1e-12)) "two" 5.0 (Cml_numerics.Vec.norm2 [| 3.; 4. |]);
  Alcotest.(check (float 1e-12)) "empty inf" 0.0 (Cml_numerics.Vec.norm_inf [||])

let test_vec_max_abs_diff () =
  Alcotest.(check (float 1e-12))
    "diff" 4.0
    (Cml_numerics.Vec.max_abs_diff [| 1.; 2. |] [| 5.; 3. |])

let test_vec_linspace () =
  check_vec_approx "linspace" [| 0.; 0.5; 1.0 |] (Cml_numerics.Vec.linspace 0.0 1.0 3)

let test_vec_logspace () =
  check_vec_approx "logspace" [| 1.; 10.; 100. |] (Cml_numerics.Vec.logspace 1.0 100.0 3)

let test_vec_add_sub_scale () =
  check_vec_approx "add" [| 4.; 6. |] (Cml_numerics.Vec.add [| 1.; 2. |] [| 3.; 4. |]);
  check_vec_approx "sub" [| -2.; -2. |] (Cml_numerics.Vec.sub [| 1.; 2. |] [| 3.; 4. |]);
  check_vec_approx "scale" [| 2.; 4. |] (Cml_numerics.Vec.scale 2.0 [| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Dense *)

let test_dense_solve_2x2 () =
  let m = Cml_numerics.Dense.of_arrays [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  let x = Cml_numerics.Dense.solve m [| 5.; 10. |] in
  check_vec_approx "2x2" [| 1.; 3. |] x

let test_dense_solve_needs_pivot () =
  (* zero on the natural first pivot forces a row swap *)
  let m = Cml_numerics.Dense.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let x = Cml_numerics.Dense.solve m [| 7.; 9. |] in
  check_vec_approx "pivot" [| 9.; 7. |] x

let test_dense_singular () =
  let m = Cml_numerics.Dense.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  Alcotest.check_raises "singular" (Cml_numerics.Dense.Singular 1) (fun () ->
      ignore (Cml_numerics.Dense.solve m [| 1.; 1. |]))

let test_dense_mul_vec () =
  let m = Cml_numerics.Dense.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_vec_approx "mul" [| 5.; 11. |] (Cml_numerics.Dense.mul_vec m [| 1.; 2. |])

let test_dense_add_entry_accumulates () =
  let m = Cml_numerics.Dense.create 2 in
  Cml_numerics.Dense.add_entry m 0 0 1.5;
  Cml_numerics.Dense.add_entry m 0 0 2.5;
  Alcotest.(check (float 1e-12)) "sum" 4.0 (Cml_numerics.Dense.get m 0 0)

let test_dense_lu_reuse () =
  let m = Cml_numerics.Dense.of_arrays [| [| 4.; 1. |]; [| 1.; 3. |] |] in
  let f = Cml_numerics.Dense.lu m in
  let x1 = Cml_numerics.Dense.lu_solve f [| 5.; 4. |] in
  let x2 = Cml_numerics.Dense.lu_solve f [| 9.; 7. |] in
  check_vec_approx "rhs1" [| 1.; 1. |] x1;
  check_vec_approx "rhs2" [| 20.0 /. 11.0; 19.0 /. 11.0 |] x2 ~eps:1e-9

(* ------------------------------------------------------------------ *)
(* Sparse compression *)

let test_sparse_compress_dups () =
  let t = Cml_numerics.Sparse.triplet_create 3 in
  Cml_numerics.Sparse.add t 0 0 1.0;
  Cml_numerics.Sparse.add t 0 0 2.0;
  Cml_numerics.Sparse.add t 1 2 5.0;
  Cml_numerics.Sparse.add t 2 1 7.0;
  let p = Cml_numerics.Sparse.compress t in
  let a = Cml_numerics.Sparse.csc_of_pattern p in
  Alcotest.(check int) "nnz merges dups" 3 (Cml_numerics.Sparse.nnz a);
  let d = Cml_numerics.Sparse.to_dense a in
  Alcotest.(check (float 1e-12)) "summed" 3.0 (Cml_numerics.Dense.get d 0 0);
  Alcotest.(check (float 1e-12)) "12" 5.0 (Cml_numerics.Dense.get d 1 2);
  Alcotest.(check (float 1e-12)) "21" 7.0 (Cml_numerics.Dense.get d 2 1)

let test_sparse_refill () =
  let t = Cml_numerics.Sparse.triplet_create 2 in
  Cml_numerics.Sparse.add t 0 0 1.0;
  Cml_numerics.Sparse.add t 0 0 1.0;
  Cml_numerics.Sparse.add t 1 1 4.0;
  let p = Cml_numerics.Sparse.compress t in
  Cml_numerics.Sparse.set_values t 0 10.0;
  Cml_numerics.Sparse.set_values t 1 20.0;
  Cml_numerics.Sparse.set_values t 2 40.0;
  Cml_numerics.Sparse.refill p t;
  let d = Cml_numerics.Sparse.to_dense (Cml_numerics.Sparse.csc_of_pattern p) in
  Alcotest.(check (float 1e-12)) "00 refilled" 30.0 (Cml_numerics.Dense.get d 0 0);
  Alcotest.(check (float 1e-12)) "11 refilled" 40.0 (Cml_numerics.Dense.get d 1 1)

let test_sparse_mul_vec () =
  let t = Cml_numerics.Sparse.triplet_create 2 in
  Cml_numerics.Sparse.add t 0 0 1.0;
  Cml_numerics.Sparse.add t 0 1 2.0;
  Cml_numerics.Sparse.add t 1 0 3.0;
  Cml_numerics.Sparse.add t 1 1 4.0;
  let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
  check_vec_approx "spmv" [| 5.; 11. |] (Cml_numerics.Sparse.mul_vec a [| 1.; 2. |])

(* ------------------------------------------------------------------ *)
(* Sparse LU *)

let csc_of_dense rows =
  let n = Array.length rows in
  let t = Cml_numerics.Sparse.triplet_create n in
  Array.iteri
    (fun i row -> Array.iteri (fun j v -> if v <> 0.0 then Cml_numerics.Sparse.add t i j v) row)
    rows;
  Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t)

let test_sparse_lu_identity () =
  let a = csc_of_dense [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |] |] in
  let f = Cml_numerics.Sparse_lu.factorize a in
  check_vec_approx "id" [| 3.; 4.; 5. |] (Cml_numerics.Sparse_lu.solve f [| 3.; 4.; 5. |])

let test_sparse_lu_permutation_matrix () =
  (* pure permutation: needs pivoting, zero diagonal *)
  let a = csc_of_dense [| [| 0.; 1.; 0. |]; [| 0.; 0.; 1. |]; [| 1.; 0.; 0. |] |] in
  let f = Cml_numerics.Sparse_lu.factorize a in
  check_vec_approx "perm" [| 3.; 1.; 2. |] (Cml_numerics.Sparse_lu.solve f [| 1.; 2.; 3. |])

let test_sparse_lu_tridiagonal () =
  let n = 50 in
  let t = Cml_numerics.Sparse.triplet_create n in
  for i = 0 to n - 1 do
    Cml_numerics.Sparse.add t i i 2.0;
    if i > 0 then Cml_numerics.Sparse.add t i (i - 1) (-1.0);
    if i < n - 1 then Cml_numerics.Sparse.add t i (i + 1) (-1.0)
  done;
  let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
  let x_true = Array.init n (fun i -> sin (float_of_int i)) in
  let b = Cml_numerics.Sparse.mul_vec a x_true in
  let f = Cml_numerics.Sparse_lu.factorize a in
  check_vec_approx ~eps:1e-8 "tridiag" x_true (Cml_numerics.Sparse_lu.solve f b)

let test_sparse_lu_singular () =
  let a = csc_of_dense [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  match Cml_numerics.Sparse_lu.factorize a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Cml_numerics.Sparse_lu.Singular _ -> ()

let test_sparse_lu_structurally_singular () =
  (* empty column: no pivot candidates at all *)
  let t = Cml_numerics.Sparse.triplet_create 2 in
  Cml_numerics.Sparse.add t 0 0 1.0;
  Cml_numerics.Sparse.add t 1 0 1.0;
  let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
  match Cml_numerics.Sparse_lu.factorize a with
  | _ -> Alcotest.fail "expected Singular"
  | exception Cml_numerics.Sparse_lu.Singular _ -> ()

(* ------------------------------------------------------------------ *)
(* Property tests *)

let random_system_gen =
  (* well-conditioned random systems: diagonally dominant with random
     sparse off-diagonal entries *)
  QCheck2.Gen.(
    int_range 1 25 >>= fun n ->
    list_size (int_range 0 (4 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range (-1.0) 1.0))
    >>= fun entries ->
    array_size (return n) (float_range (-10.0) 10.0) >>= fun rhs -> return (n, entries, rhs))

let prop_sparse_matches_dense =
  QCheck2.Test.make ~name:"sparse LU agrees with dense LU" ~count:200 random_system_gen
    (fun (n, entries, rhs) ->
      let t = Cml_numerics.Sparse.triplet_create n in
      let d = Cml_numerics.Dense.create n in
      List.iter
        (fun (i, j, v) ->
          Cml_numerics.Sparse.add t i j v;
          Cml_numerics.Dense.add_entry d i j v)
        entries;
      for i = 0 to n - 1 do
        Cml_numerics.Sparse.add t i i (float_of_int (4 * n));
        Cml_numerics.Dense.add_entry d i i (float_of_int (4 * n))
      done;
      let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
      let xs = Cml_numerics.Sparse_lu.solve (Cml_numerics.Sparse_lu.factorize a) rhs in
      let xd = Cml_numerics.Dense.solve d rhs in
      Cml_numerics.Vec.max_abs_diff xs xd < 1e-8)

let prop_sparse_residual =
  QCheck2.Test.make ~name:"sparse LU residual is small" ~count:200 random_system_gen
    (fun (n, entries, rhs) ->
      let t = Cml_numerics.Sparse.triplet_create n in
      List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add t i j v) entries;
      for i = 0 to n - 1 do
        Cml_numerics.Sparse.add t i i (float_of_int (4 * n))
      done;
      let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
      let x = Cml_numerics.Sparse_lu.solve (Cml_numerics.Sparse_lu.factorize a) rhs in
      let r = Cml_numerics.Vec.sub (Cml_numerics.Sparse.mul_vec a x) rhs in
      Cml_numerics.Vec.norm_inf r < 1e-7 *. (1.0 +. Cml_numerics.Vec.norm_inf rhs))

let prop_dense_lu_roundtrip =
  QCheck2.Test.make ~name:"dense solve then multiply is identity" ~count:200 random_system_gen
    (fun (n, entries, rhs) ->
      let d = Cml_numerics.Dense.create n in
      List.iter (fun (i, j, v) -> Cml_numerics.Dense.add_entry d i j v) entries;
      for i = 0 to n - 1 do
        Cml_numerics.Dense.add_entry d i i (float_of_int (4 * n))
      done;
      let x = Cml_numerics.Dense.solve d rhs in
      let r = Cml_numerics.Vec.sub (Cml_numerics.Dense.mul_vec d x) rhs in
      Cml_numerics.Vec.norm_inf r < 1e-7 *. (1.0 +. Cml_numerics.Vec.norm_inf rhs))

let prop_compress_preserves_sums =
  QCheck2.Test.make ~name:"compression sums duplicates exactly like dense stamping" ~count:200
    QCheck2.Gen.(
      int_range 1 10 >>= fun n ->
      list_size (int_range 0 40)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range (-5.0) 5.0))
      >>= fun entries -> return (n, entries))
    (fun (n, entries) ->
      let t = Cml_numerics.Sparse.triplet_create n in
      let d = Cml_numerics.Dense.create n in
      List.iter
        (fun (i, j, v) ->
          Cml_numerics.Sparse.add t i j v;
          Cml_numerics.Dense.add_entry d i j v)
        entries;
      let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
      let da = Cml_numerics.Sparse.to_dense a in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Float.abs (Cml_numerics.Dense.get da i j -. Cml_numerics.Dense.get d i j) > 1e-12
          then ok := false
        done
      done;
      !ok)

let prop_linspace_bounds =
  QCheck2.Test.make ~name:"linspace hits both endpoints and is monotone" ~count:100
    QCheck2.Gen.(triple (float_range (-100.) 100.) (float_range 0.001 100.) (int_range 2 50))
    (fun (a, width, n) ->
      let b = a +. width in
      let v = Cml_numerics.Vec.linspace a b n in
      let monotone = ref true in
      for i = 1 to n - 1 do
        if v.(i) <= v.(i - 1) then monotone := false
      done;
      approx ~eps:1e-9 v.(0) a && approx ~eps:1e-9 v.(n - 1) b && !monotone)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_std () =
  let xs = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Cml_numerics.Stats.mean xs);
  Alcotest.(check (float 1e-6)) "stddev" 2.13809 (Cml_numerics.Stats.stddev xs)

let test_stats_percentile () =
  let xs = [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  Alcotest.(check (float 1e-9)) "median" 3.0 (Cml_numerics.Stats.percentile xs 50.0);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Cml_numerics.Stats.percentile xs 0.0);
  Alcotest.(check (float 1e-9)) "p100" 5.0 (Cml_numerics.Stats.percentile xs 100.0);
  Alcotest.(check (float 1e-9)) "p25" 2.0 (Cml_numerics.Stats.percentile xs 25.0)

let test_stats_histogram () =
  let h = Cml_numerics.Stats.histogram [| 0.0; 0.1; 0.9; 1.0 |] ~bins:2 in
  Alcotest.(check int) "two bins" 2 (List.length h);
  let counts = List.map (fun (_, _, c) -> c) h in
  Alcotest.(check (list int)) "split" [ 2; 2 ] counts

let test_stats_empty_rejected () =
  match Cml_numerics.Stats.mean [||] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let prop_stats_mean_bounds =
  QCheck2.Test.make ~name:"mean lies within min/max" ~count:200
    QCheck2.Gen.(array_size (int_range 1 40) (float_range (-100.0) 100.0))
    (fun xs ->
      let m = Cml_numerics.Stats.mean xs in
      m >= Cml_numerics.Stats.minimum xs -. 1e-9 && m <= Cml_numerics.Stats.maximum xs +. 1e-9)

let prop_stats_percentile_monotone =
  QCheck2.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck2.Gen.(
      pair
        (array_size (int_range 1 40) (float_range (-100.0) 100.0))
        (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (xs, (p1, p2)) ->
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Cml_numerics.Stats.percentile xs lo <= Cml_numerics.Stats.percentile xs hi +. 1e-9)

let prop_stats_histogram_total =
  QCheck2.Test.make ~name:"histogram counts sum to n" ~count:200
    QCheck2.Gen.(
      pair (array_size (int_range 1 60) (float_range (-10.0) 10.0)) (int_range 1 10))
    (fun (xs, bins) ->
      let total =
        List.fold_left (fun acc (_, _, c) -> acc + c) 0 (Cml_numerics.Stats.histogram xs ~bins)
      in
      total = Array.length xs)

(* ------------------------------------------------------------------ *)
(* Batch workspace *)

module B = Cml_numerics.Batch

let test_batch_create_and_shape () =
  let b = B.create ~lanes:3 ~width:4 in
  Alcotest.(check int) "lanes" 3 (B.lanes b);
  Alcotest.(check int) "width" 4 (B.width b);
  Alcotest.(check int) "all live" 3 (B.live_count b);
  for lane = 0 to 2 do
    for i = 0 to 3 do
      Alcotest.(check (float 0.0)) "zero-filled" 0.0 (B.get b lane i)
    done
  done;
  Alcotest.check_raises "lanes < 1 rejected"
    (Invalid_argument "Batch.create: lanes must be >= 1") (fun () ->
      ignore (B.create ~lanes:0 ~width:4))

let test_batch_lane_roundtrip () =
  let b = B.create ~lanes:2 ~width:3 in
  B.write_lane b 1 [| 1.5; -2.0; 0.25 |];
  let out = Array.make 3 nan in
  B.read_lane b 1 out;
  Alcotest.(check (array (float 0.0))) "written lane reads back" [| 1.5; -2.0; 0.25 |] out;
  B.read_lane b 0 out;
  Alcotest.(check (array (float 0.0))) "other lane untouched" [| 0.0; 0.0; 0.0 |] out;
  Alcotest.(check bool) "width mismatch rejected" true
    (match B.write_lane b 0 [| 1.0 |] with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_batch_retire_semantics () =
  let b = B.create ~lanes:3 ~width:1 in
  B.retire b 1 B.Diverged;
  Alcotest.(check int) "one retired" 2 (B.live_count b);
  Alcotest.(check bool) "lane 1 dead" false (B.is_live b 1);
  (* first retirement wins *)
  B.retire b 1 B.Done;
  Alcotest.(check bool) "reason sticks" true (B.status b 1 = Some B.Diverged);
  Alcotest.(check int) "diverged count" 1 (B.retired_count b B.Diverged);
  Alcotest.(check int) "done count" 0 (B.retired_count b B.Done);
  Alcotest.(check bool) "out of range rejected" true
    (match B.retire b 3 B.Done with () -> false | exception Invalid_argument _ -> true)

let test_batch_iter_live_allows_retiring_current () =
  let b = B.create ~lanes:4 ~width:1 in
  B.retire b 2 B.Incompatible;
  let seen = ref [] in
  B.iter_live
    (fun lane ->
      seen := lane :: !seen;
      if lane = 1 then B.retire b lane B.Diverged)
    b;
  Alcotest.(check (list int)) "live lanes in order, skipping retired" [ 0; 1; 3 ]
    (List.rev !seen);
  Alcotest.(check int) "retire inside callback stuck" 2 (B.live_count b)

(* MNA-like patterns: structurally symmetric (a conductance stamp
   touches (i,j), (j,i) and both diagonals) and diagonally dominant,
   the shape every nodal-analysis Jacobian has.  On these the Auto
   ordering picks the smaller of the natural and amd fill estimates,
   so its factors can never hold more nonzeros than Natural's. *)
let mna_system_gen =
  QCheck2.Gen.(
    int_range 2 40 >>= fun n ->
    list_size (int_range 0 (3 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 0.1 1.0))
    >>= fun stamps ->
    array_size (return n) (float_range (-10.0) 10.0) >>= fun rhs -> return (n, stamps, rhs))

let mna_matrix (n, stamps, _) =
  let t = Cml_numerics.Sparse.triplet_create n in
  List.iter
    (fun (i, j, g) ->
      Cml_numerics.Sparse.add t i j (-.g);
      Cml_numerics.Sparse.add t j i (-.g);
      Cml_numerics.Sparse.add t i i g;
      Cml_numerics.Sparse.add t j j g)
    stamps;
  for i = 0 to n - 1 do
    Cml_numerics.Sparse.add t i i (float_of_int n)
  done;
  Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t)

let factor_nnz f =
  let l, u = Cml_numerics.Sparse_lu.lu_nnz f in
  l + u

let prop_amd_solve_matches_natural =
  QCheck2.Test.make ~name:"amd-ordered solve matches natural-order solve" ~count:200
    mna_system_gen (fun ((_, _, rhs) as sys) ->
      let a = mna_matrix sys in
      let solve ordering =
        Cml_numerics.Sparse_lu.solve (Cml_numerics.Sparse_lu.factorize ~ordering a) rhs
      in
      Cml_numerics.Vec.max_abs_diff
        (solve Cml_numerics.Sparse_lu.Natural)
        (solve Cml_numerics.Sparse_lu.Amd)
      < 1e-8)

let prop_auto_fill_no_worse =
  QCheck2.Test.make ~name:"Auto fill <= natural fill on MNA-like patterns" ~count:200
    mna_system_gen (fun sys ->
      let a = mna_matrix sys in
      let nnz ordering = factor_nnz (Cml_numerics.Sparse_lu.factorize ~ordering a) in
      nnz Cml_numerics.Sparse_lu.Auto <= nnz Cml_numerics.Sparse_lu.Natural)

(* The fast fill counters Auto's decision rests on must agree exactly
   with replaying the order through the quotient-graph elimination. *)
let prop_fill_counters_agree =
  QCheck2.Test.make ~name:"natural_fill / amd_with_fill match fill_estimate" ~count:200
    mna_system_gen (fun sys ->
      let a = mna_matrix sys in
      let module O = Cml_numerics.Ordering in
      let n = a.Cml_numerics.Sparse.n in
      let q, fa = O.amd_with_fill a in
      let fn = O.natural_fill a in
      fn = O.fill_estimate a ~order:(O.identity n)
      && fa = O.fill_estimate a ~order:q
      && fn <= O.envelope_bound a)

(* Auto's cutoff is relative to nnz(A): natural stays while its fill
   is at most twice the matrix, and small systems never pay for the
   min-degree analysis. *)
let auto_ordering entries n =
  let t = Cml_numerics.Sparse.triplet_create n in
  List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add t i j v) entries;
  let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
  Cml_numerics.Sparse_lu.ordering_name (Cml_numerics.Sparse_lu.factorize a)

(* the bechamel perf kernel's pattern: tridiagonal plus an upper
   band at distance 7 *)
let banded n =
  List.concat
    (List.init n (fun i ->
         ((i, i, 4.0) :: (if i > 0 then [ (i, i - 1, -1.0) ] else []))
         @ (if i < n - 1 then [ (i, i + 1, -1.0) ] else [])
         @ if i + 7 < n then [ (i, i + 7, -0.5) ] else []))

(* dense first row and column: natural order fills the whole lower
   triangle, eliminating the hub last fills nothing *)
let arrow n =
  List.concat
    (List.init n (fun i ->
         if i = 0 then [ (0, 0, float_of_int n) ]
         else [ (i, i, float_of_int n); (0, i, -1.0); (i, 0, -1.0) ]))

let test_auto_ordering_decisions () =
  Alcotest.(check string) "banded n=200 stays natural" "natural" (auto_ordering (banded 200) 200);
  Alcotest.(check string) "arrow below 16 unknowns stays natural" "natural"
    (auto_ordering (arrow 15) 15);
  Alcotest.(check string) "arrow at 16 unknowns goes amd" "amd" (auto_ordering (arrow 16) 16)

let () =
  let qc = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "numerics"
    [
      ( "vec",
        [
          Alcotest.test_case "create" `Quick test_vec_create;
          Alcotest.test_case "axpy" `Quick test_vec_axpy;
          Alcotest.test_case "dot" `Quick test_vec_dot;
          Alcotest.test_case "norms" `Quick test_vec_norms;
          Alcotest.test_case "max_abs_diff" `Quick test_vec_max_abs_diff;
          Alcotest.test_case "linspace" `Quick test_vec_linspace;
          Alcotest.test_case "logspace" `Quick test_vec_logspace;
          Alcotest.test_case "add/sub/scale" `Quick test_vec_add_sub_scale;
        ] );
      ( "dense",
        [
          Alcotest.test_case "solve 2x2" `Quick test_dense_solve_2x2;
          Alcotest.test_case "solve with pivoting" `Quick test_dense_solve_needs_pivot;
          Alcotest.test_case "singular raises" `Quick test_dense_singular;
          Alcotest.test_case "mul_vec" `Quick test_dense_mul_vec;
          Alcotest.test_case "add_entry accumulates" `Quick test_dense_add_entry_accumulates;
          Alcotest.test_case "lu factor reuse" `Quick test_dense_lu_reuse;
        ] );
      ( "sparse",
        [
          Alcotest.test_case "compress merges duplicates" `Quick test_sparse_compress_dups;
          Alcotest.test_case "refill" `Quick test_sparse_refill;
          Alcotest.test_case "mul_vec" `Quick test_sparse_mul_vec;
        ] );
      ( "sparse-lu",
        [
          Alcotest.test_case "identity" `Quick test_sparse_lu_identity;
          Alcotest.test_case "permutation matrix" `Quick test_sparse_lu_permutation_matrix;
          Alcotest.test_case "tridiagonal 50" `Quick test_sparse_lu_tridiagonal;
          Alcotest.test_case "numerically singular" `Quick test_sparse_lu_singular;
          Alcotest.test_case "structurally singular" `Quick test_sparse_lu_structurally_singular;
          Alcotest.test_case "auto ordering decisions" `Quick test_auto_ordering_decisions;
        ] );
      ( "batch",
        [
          Alcotest.test_case "create and shape" `Quick test_batch_create_and_shape;
          Alcotest.test_case "lane roundtrip" `Quick test_batch_lane_roundtrip;
          Alcotest.test_case "retire semantics" `Quick test_batch_retire_semantics;
          Alcotest.test_case "iter_live with retire" `Quick
            test_batch_iter_live_allows_retiring_current;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/std" `Quick test_stats_mean_std;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
        ] );
      ( "properties",
        qc
          [
            prop_stats_mean_bounds;
            prop_stats_percentile_monotone;
            prop_stats_histogram_total;
            prop_sparse_matches_dense;
            prop_sparse_residual;
            prop_dense_lu_roundtrip;
            prop_compress_preserves_sums;
            prop_linspace_bounds;
            prop_amd_solve_matches_natural;
            prop_auto_fill_no_worse;
            prop_fill_counters_agree;
          ] );
    ]
