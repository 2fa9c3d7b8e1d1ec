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
  (* re-stamp the same three entries with new values, in place *)
  let a = Cml_numerics.Sparse.csc_of_pattern p in
  let slot = Cml_numerics.Sparse.entry_of_triplet p in
  let values = a.Cml_numerics.Sparse.values in
  Array.fill values 0 (Array.length values) 0.0;
  Array.iteri (fun k v -> values.(slot.(k)) <- values.(slot.(k)) +. v) [| 10.0; 20.0; 40.0 |];
  let d = Cml_numerics.Sparse.to_dense a in
  Alcotest.(check (float 1e-12)) "00 refilled" 30.0 (Cml_numerics.Dense.get d 0 0);
  Alcotest.(check (float 1e-12)) "11 refilled" 40.0 (Cml_numerics.Dense.get d 1 1)

(* Duplicates are summed in the order they were appended, whatever
   else shares their column: with a plain (unstable) sort the two
   cancellation orders below could swap and give 1.0 and 0.0. *)
let test_sparse_compress_entry_order () =
  let sum_at values =
    let t = Cml_numerics.Sparse.triplet_create 4 in
    List.iteri
      (fun k v ->
        (* interleave other rows of the same column *)
        Cml_numerics.Sparse.add t (3 - k) 1 (float_of_int k);
        Cml_numerics.Sparse.add t 2 1 v)
      values;
    let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t) in
    Cml_numerics.Dense.get (Cml_numerics.Sparse.to_dense a) 2 1
  in
  Alcotest.(check (float 0.0)) "(1e16 + 1) - 1e16" 0.0 (sum_at [ 1e16; 1.0; -1e16 ]);
  Alcotest.(check (float 0.0)) "(1e16 - 1e16) + 1" 1.0 (sum_at [ 1e16; -1e16; 1.0 ])

(* The linear-time compression against the obvious reference: sort the
   entries by (column, row, entry index), merge equal coordinates
   summing in entry order. *)
let test_sparse_compress_matches_reference () =
  let n = 300 and len = 20_000 in
  let st = Random.State.make [| 15 |] in
  (* a few hot coordinates make long duplicate runs *)
  let coord () = if Random.State.int st 4 = 0 then Random.State.int st 7 else Random.State.int st n in
  let entries =
    Array.init len (fun _ ->
        let i = coord () and j = coord () in
        (i, j, Random.State.float st 2.0 -. 1.0))
  in
  let t = Cml_numerics.Sparse.triplet_create n in
  Array.iter (fun (i, j, v) -> Cml_numerics.Sparse.add t i j v) entries;
  let p = Cml_numerics.Sparse.compress t in
  let a = Cml_numerics.Sparse.csc_of_pattern p in
  let eot = Cml_numerics.Sparse.entry_of_triplet p in
  let sorted =
    List.sort compare (List.init len (fun k -> let i, j, _ = entries.(k) in (j, i, k)))
  in
  let colptr = Array.make (n + 1) 0 in
  let rowind = ref [] and values = ref [] and ref_eot = Array.make len (-1) in
  let stored = ref 0 and last = ref (-1, -1) in
  List.iter
    (fun (j, i, k) ->
      let _, _, v = entries.(k) in
      if (j, i) = !last then begin
        (match !values with s :: rest -> values := (s +. v) :: rest | [] -> assert false);
        ref_eot.(k) <- !stored - 1
      end
      else begin
        rowind := i :: !rowind;
        values := (0.0 +. v) :: !values;
        colptr.(j + 1) <- colptr.(j + 1) + 1;
        ref_eot.(k) <- !stored;
        incr stored;
        last := (j, i)
      end)
    sorted;
  for j = 1 to n do
    colptr.(j) <- colptr.(j) + colptr.(j - 1)
  done;
  Alcotest.(check (array int)) "colptr" colptr a.Cml_numerics.Sparse.colptr;
  Alcotest.(check (array int)) "rowind" (Array.of_list (List.rev !rowind)) a.Cml_numerics.Sparse.rowind;
  Alcotest.(check (array int)) "entry_of_triplet" ref_eot eot;
  Alcotest.(check (array int64))
    "values, bit for bit"
    (Array.map Int64.bits_of_float (Array.of_list (List.rev !values)))
    (Array.map Int64.bits_of_float a.Cml_numerics.Sparse.values)

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
   with replaying the order through the quotient-graph elimination —
   the list-based reference's, so the check stays independent of the
   array kernel. *)
let prop_fill_counters_agree =
  QCheck2.Test.make ~name:"natural_fill / amd_with_fill match fill_estimate" ~count:200
    mna_system_gen (fun sys ->
      let a = mna_matrix sys in
      let module O = Cml_numerics.Ordering in
      let n = a.Cml_numerics.Sparse.n in
      let q, fa = O.amd_with_fill a in
      let fn = O.natural_fill a in
      fn = Ordering_reference.fill_estimate a ~order:(O.identity n)
      && fa = Ordering_reference.fill_estimate a ~order:q
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

(* ------------------------------------------------------------------ *)
(* Re-pivoting in a kept column order *)

module L = Cml_numerics.Sparse_lu

(* Everything a caller can observe of a factor, floats as bit patterns
   so that equality means bit-identical; a singular matrix reads as
   the column it failed at. *)
let lu_outcome factor rhs =
  match factor () with
  | f ->
      Ok
        ( Array.map Int64.bits_of_float (L.solve f rhs),
          L.lu_nnz f,
          L.ordering_name f,
          Int64.bits_of_float (L.fill_ratio f) )
  | exception L.Singular col -> Error col

let csc_of_entries entries n =
  let t = Cml_numerics.Sparse.triplet_create n in
  List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add t i j v) entries;
  Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t)

(* The factor of one matrix re-pivoted for new values on the same
   pattern — after a refactorize attempt, as the engine's fallback
   does — must be the fresh factorization of the new values under the
   same ordering policy, bit for bit.  Scaling every entry by a random
   factor in [-1, 1] takes away the diagonal dominance, so the pivot
   search leaves the diagonal. *)
let prop_repivot_matches_factorize =
  QCheck2.Test.make ~name:"repivot in the kept order is factorize, bit for bit" ~count:200
    QCheck2.Gen.(pair mna_system_gen int)
    (fun (((_, _, rhs) as sys), seed) ->
      let a = mna_matrix sys in
      let st = Random.State.make [| seed |] in
      let b =
        {
          a with
          Cml_numerics.Sparse.values =
            Array.map
              (fun v -> v *. (Random.State.float st 2.0 -. 1.0))
              a.Cml_numerics.Sparse.values;
        }
      in
      List.for_all
        (fun ordering ->
          match L.factorize ~ordering a with
          | exception L.Singular _ -> true
          | f ->
              ignore (L.refactorize f b);
              lu_outcome (fun () -> L.repivot f b) rhs
              = lu_outcome (fun () -> L.factorize ~ordering b) rhs)
        [ L.Natural; L.Amd; L.Auto ])

let test_repivot_after_unstable_pivot () =
  let n = 16 in
  let a = csc_of_entries (arrow n) n in
  let f = L.factorize a in
  Alcotest.(check string) "the arrow goes amd" "amd" (L.ordering_name f);
  (* leaf 5's diagonal collapses to 1e-10 next to its unit coupling to
     the hub: the recycled diagonal pivot is no longer stable *)
  let b = { a with Cml_numerics.Sparse.values = Array.copy a.Cml_numerics.Sparse.values } in
  for p = a.Cml_numerics.Sparse.colptr.(5) to a.Cml_numerics.Sparse.colptr.(6) - 1 do
    if a.Cml_numerics.Sparse.rowind.(p) = 5 then b.Cml_numerics.Sparse.values.(p) <- 1e-10
  done;
  Alcotest.(check bool) "refactorize refuses" false (L.refactorize f b);
  Alcotest.(check bool) "for an unstable pivot at column 5" true
    (L.last_refactor_failure f = Some (L.Unstable_pivot 5));
  let rhs = Array.init n (fun i -> float_of_int (i + 1)) in
  let r = L.repivot f b in
  Alcotest.(check bool) "repivot is factorize, bit for bit" true
    (lu_outcome (fun () -> r) rhs = lu_outcome (fun () -> L.factorize b) rhs);
  let x = L.solve r rhs in
  let res = Cml_numerics.Vec.sub (Cml_numerics.Sparse.mul_vec b x) rhs in
  Alcotest.(check bool) "and solves the new system" true (Cml_numerics.Vec.norm_inf res < 1e-9)

let test_repivot_pattern_mismatch () =
  let f = L.factorize (csc_of_entries (arrow 16) 16) in
  List.iter
    (fun (what, n) ->
      let a = csc_of_entries (banded n) n in
      let rhs = Array.init n (fun i -> sin (float_of_int i)) in
      Alcotest.(check bool) (what ^ ": falls back to factorize") true
        (lu_outcome (fun () -> L.repivot f a) rhs = lu_outcome (fun () -> L.factorize a) rhs);
      Alcotest.(check string)
        (what ^ ": ordered afresh")
        "natural"
        (L.ordering_name (L.repivot f a)))
    [ ("same size, other pattern", 16); ("other size", 20) ]

(* ------------------------------------------------------------------ *)
(* Adopting a symbolic analysis where the pivot search agrees *)

let csc_bits (m : Cml_numerics.Sparse.csc) =
  ( m.Cml_numerics.Sparse.colptr,
    m.Cml_numerics.Sparse.rowind,
    Array.map Int64.bits_of_float m.Cml_numerics.Sparse.values )

(* L, U and the row permutation, bit for bit, and a solve *)
let factor_bits f rhs =
  let l, u, pinv = L.factors f in
  (csc_bits l, csc_bits u, pinv, Array.map Int64.bits_of_float (L.solve f rhs))

(* [a] with the value at (i, j) replaced *)
let with_entry (a : Cml_numerics.Sparse.csc) i j v =
  let values = Array.copy a.Cml_numerics.Sparse.values in
  for p = a.Cml_numerics.Sparse.colptr.(j) to a.Cml_numerics.Sparse.colptr.(j + 1) - 1 do
    if a.Cml_numerics.Sparse.rowind.(p) = i then values.(p) <- v
  done;
  { a with Cml_numerics.Sparse.values }

let adopted s a = Option.is_some (L.adopt s a)

(* Column 0 holds the diagonal and two rows below it; the first pivot
   is the diagonal while |a00| >= 1e-3 * 100, row 1 below that. *)
let three =
  csc_of_entries
    [ (0, 0, 1.0); (1, 0, 100.0); (2, 0, 50.0); (0, 1, 1.0); (1, 1, 2.0); (2, 1, 1.0); (1, 2, 1.0);
      (2, 2, 3.0) ]
    3

(* Column 0's pivot is row 1 (|a00| is below 1e-3 * 100), column 1's
   row 0 and column 2's row 2, and changing a20 alone moves no later
   pivot: a tie at column 0 is all that stands between it and the
   recorded order. *)
let tied a20 =
  csc_of_entries [ (0, 0, 1e-5); (1, 0, 100.0); (2, 0, a20); (0, 1, 1.0); (1, 2, 1.0); (2, 2, 1.0) ] 3

(* Column 0's L entry a20 meets only the explicit zero a02 later, so a
   non-finite one reaches no later candidate. *)
let isolated a20 =
  csc_of_entries [ (0, 0, 1.0); (2, 0, a20); (1, 1, 1.0); (0, 2, 0.0); (2, 2, 1.0) ] 3

let analysis_of a = L.symbolic (L.factorize_in (L.column_order a) a)

let test_adopt_refusals () =
  let diag = analysis_of three in
  Alcotest.(check bool) "the same values adopt" true (adopted diag three);
  Alcotest.(check bool) "a diagonal still preferred adopts" true
    (adopted diag (with_entry three 0 0 0.2));
  Alcotest.(check bool) "a diagonal below 1e-3 of the column refuses" false
    (adopted diag (with_entry three 0 0 0.05));
  let below = with_entry three 0 0 1e-5 in
  let offdiag = analysis_of below in
  Alcotest.(check bool) "the row-1 pivot adopts" true (adopted offdiag (with_entry three 0 0 2e-5));
  Alcotest.(check bool) "a diagonal back above 1e-3 of the column refuses" false
    (adopted offdiag three);
  let by_row1 = analysis_of (tied 50.0) in
  Alcotest.(check bool) "the same pivots adopt" true (adopted by_row1 (tied (-60.0)));
  Alcotest.(check bool) "a tie with another candidate refuses" false
    (adopted by_row1 (tied (-100.0)));
  Alcotest.(check bool) "a larger other candidate refuses" false (adopted by_row1 (tied 100.5));
  let by_diag = analysis_of (isolated 0.5) in
  Alcotest.(check bool) "a finite isolated entry adopts" true (adopted by_diag (isolated 0.25));
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (what ^ " on a diagonal refuses") false
        (adopted diag (with_entry three 1 1 v));
      Alcotest.(check bool) (what ^ " below a pivot refuses") false
        (adopted diag (with_entry three 2 0 v));
      Alcotest.(check bool) (what ^ " reaching no later candidate refuses") false
        (adopted by_diag (isolated v)))
    [ ("NaN", nan); ("+Inf", infinity); ("-Inf", neg_infinity) ];
  Alcotest.(check bool) "another pattern refuses" false
    (adopted diag (csc_of_entries [ (0, 0, 1.0); (1, 1, 1.0); (2, 2, 1.0); (1, 0, 1.0) ] 3));
  Alcotest.(check bool) "another size refuses" false
    (adopted diag (csc_of_entries (arrow 4) 4));
  (* accepted, the factor is the search's in the same order *)
  let b = with_entry three 0 0 0.2 and rhs = [| 1.0; -2.0; 0.5 |] in
  Alcotest.(check bool) "L, U, pinv and a solve bit-identical to factorize_in" true
    (factor_bits (Option.get (L.adopt diag b)) rhs
    = factor_bits (L.factorize_in (L.column_order b) b) rhs)

(* Values scaled per entry by a factor near 1 (the pivot order mostly
   holds) or anywhere in [-1, 1] (the search mostly leaves it): an
   adoption that is accepted is [factorize_in] in the same column
   order, bit for bit, and one that is refused is one the search
   disagrees with or cannot do. *)
let prop_adopt_is_factorize_in =
  QCheck2.Test.make ~name:"an accepted adoption is factorize_in, bit for bit" ~count:300
    QCheck2.Gen.(triple mna_system_gen int bool)
    (fun (((_, _, rhs) as sys), seed, mild) ->
      let a = mna_matrix sys in
      let st = Random.State.make [| seed |] in
      let scale () =
        if mild then 1.0 +. Random.State.float st 0.02 -. 0.01 else Random.State.float st 2.0 -. 1.0
      in
      let b =
        { a with Cml_numerics.Sparse.values = Array.map (fun v -> v *. scale ()) a.Cml_numerics.Sparse.values }
      in
      List.for_all
        (fun ordering ->
          let order = L.column_order ~ordering a in
          match L.factorize_in order a with
          | exception L.Singular _ -> true
          | f -> (
              let fresh = match L.factorize_in order b with f -> Some f | exception L.Singular _ -> None in
              match (L.adopt (L.symbolic f) b, fresh) with
              | Some g, Some h -> factor_bits g rhs = factor_bits h rhs
              | Some _, None -> false
              | None, (Some _ | None) -> true))
        [ L.Natural; L.Amd ])

(* Mild perturbations keep the MNA pivots: most adoptions are taken *)
let test_adopt_mostly_accepted () =
  let accepted = ref 0 and tried = ref 0 in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 100 do
    let sys = QCheck2.Gen.generate1 ~rand:st mna_system_gen in
    let a = mna_matrix sys in
    let b =
      {
        a with
        Cml_numerics.Sparse.values =
          Array.map (fun v -> v *. (1.0 +. Random.State.float st 0.02 -. 0.01)) a.Cml_numerics.Sparse.values;
      }
    in
    incr tried;
    if adopted (analysis_of a) b then incr accepted
  done;
  Alcotest.(check bool) (Printf.sprintf "%d of %d accepted" !accepted !tried) true
    (!accepted * 10 >= !tried * 9)

(* ------------------------------------------------------------------ *)
(* The array-based ordering against the list-based reference *)

module O = Cml_numerics.Ordering

(* Unsymmetric patterns with the shapes a nodal Jacobian has and a
   few it rarely has: symmetric conductance stamps, one-sided entries
   (controlled sources), up to three rail rows coupled to over half
   the unknowns, and unknowns with no off-diagonal entry at all (with
   [n = 1] among them).  The diagonal dominates every row, so every
   ordering policy can factor it. *)
let ordering_pattern_gen ?(min_n = 1) ?(max_n = 70) () =
  QCheck2.Gen.(
    int_range min_n max_n >>= fun n ->
    list_size (int_range 0 (2 * n)) (triple bool (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    >>= fun stamps ->
    list_size (int_range 0 3) (pair (int_range 0 (n - 1)) (float_range 0.5 0.95))
    >>= fun rails -> int >>= fun seed -> return (n, stamps, rails, seed))

let ordering_pattern (n, stamps, rails, seed) =
  let st = Random.State.make [| seed |] in
  let t = Cml_numerics.Sparse.triplet_create n in
  let off i j = if i <> j then Cml_numerics.Sparse.add t i j (Random.State.float st 2.0 -. 1.0) in
  List.iter
    (fun (symmetric, i, j) ->
      off i j;
      if symmetric then off j i)
    stamps;
  List.iter
    (fun (r, density) ->
      for j = 0 to n - 1 do
        if Random.State.float st 1.0 < density then begin
          off r j;
          off j r
        end
      done)
    rails;
  for i = 0 to n - 1 do
    Cml_numerics.Sparse.add t i i (float_of_int (n + 1))
  done;
  Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t)

let shuffled st n =
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- t
  done;
  p

let prop_ordering_matches_reference =
  QCheck2.Test.make ~name:"amd / amd_with_fill / fill_estimate match the list reference"
    ~count:300 (ordering_pattern_gen ()) (fun ((n, _, _, seed) as g) ->
      let a = ordering_pattern g in
      let q, fa = O.amd_with_fill a in
      let forced = [ O.identity n; q; shuffled (Random.State.make [| seed |]) n ] in
      (q, fa) = Ordering_reference.amd_with_fill a
      && O.amd a = Ordering_reference.amd a
      && List.for_all
           (fun order ->
             O.fill_estimate a ~order = Ordering_reference.fill_estimate a ~order)
           forced)

(* a capped natural count is exact up to its cap and past it otherwise *)
let prop_natural_fill_cap =
  QCheck2.Test.make ~name:"natural_fill ~cap is exact within the cap" ~count:300
    QCheck2.Gen.(pair (ordering_pattern_gen ()) (int_range 0 400))
    (fun (g, cap) ->
      let a = ordering_pattern g in
      let fn = O.natural_fill a and capped = O.natural_fill ~cap a in
      if fn <= cap then capped = fn else capped > cap)

(* Auto's decision as it read before the natural count was capped:
   the full natural fill against the cutoff, then against amd's fill,
   both counted by the list reference. *)
let uncapped_auto a =
  let n = a.Cml_numerics.Sparse.n in
  let cutoff = 2 * Cml_numerics.Sparse.nnz a in
  if n < 16 || O.envelope_bound a <= cutoff then "natural"
  else
    let fn = Ordering_reference.fill_estimate a ~order:(O.identity n) in
    if fn <= cutoff then "natural"
    else if snd (Ordering_reference.amd_with_fill a) < fn then "amd"
    else "natural"

(* Up to 300 unknowns: random couplings only fill past Auto's cutoff,
   where both counts are compared, on the larger patterns. *)
let prop_capped_auto_decision =
  QCheck2.Test.make ~name:"capped Auto picks the uncapped decision" ~count:200
    (ordering_pattern_gen ~min_n:16 ~max_n:300 ())
    (fun g ->
      let a = ordering_pattern g in
      L.ordering_name (L.factorize a) = uncapped_auto a)

let test_ordering_edge_sizes () =
  let empty = csc_of_entries [] 0 and one = csc_of_entries [ (0, 0, 1.0) ] 1 in
  Alcotest.(check (pair (array int) int)) "n = 0" ([||], 0) (O.amd_with_fill empty);
  Alcotest.(check (pair (array int) int)) "n = 1" ([| 0 |], 0) (O.amd_with_fill one);
  Alcotest.(check int) "n = 0 natural fill" 0 (O.natural_fill empty);
  Alcotest.check_raises "not a permutation"
    (Invalid_argument "Ordering.fill_estimate: order is not a permutation") (fun () ->
      ignore (O.fill_estimate (csc_of_entries (arrow 4) 4) ~order:[| 0; 1; 1; 3 |]))

(* The engine's Jacobian pattern of a netlist, which is all an
   ordering reads. *)
let jacobian_pattern net =
  let module E = Cml_spice.Engine in
  let sim = E.compile net in
  let g, _ = E.newton_system sim (Array.make (E.unknown_count sim) 0.0) in
  csc_of_entries g (E.unknown_count sim)

(* The two designs whose ordering the workloads pay for, pinned to
   the list reference's full orders (and a digest of them, so the pin
   does not rest on the reference alone) and fills. *)
let check_pinned_order name a ~n ~fill ~digest =
  let q, fa = O.amd_with_fill a in
  let order_text = String.concat "," (Array.to_list (Array.map string_of_int q)) in
  Alcotest.(check int) (name ^ " unknowns") n a.Cml_numerics.Sparse.n;
  Alcotest.(check int) (name ^ " amd fill") fill fa;
  Alcotest.(check bool)
    (name ^ " order is the reference's")
    true
    (Ordering_reference.amd_with_fill a = (q, fa));
  Alcotest.(check string)
    (name ^ " order digest")
    digest
    (Digest.to_hex (Digest.string order_text));
  Alcotest.(check int) (name ^ " fill_estimate of the order") fill (O.fill_estimate a ~order:q)

let test_pinned_orders () =
  let c432 =
    Cml_cells.Compile.netlist
      (Cml_cells.Compile.compile ~freq:200e6 (Cml_logic.Bench_circuits.c432_surrogate ()))
  in
  check_pinned_order "c432 surrogate" (jacobian_pattern c432) ~n:949 ~fill:9465
    ~digest:"66d6ebac89cbd4c646a65f32c1c33bd3";
  let sharing = Cml_dft.Sharing.build ~multi_emitter:true ~n:45 () in
  check_pinned_order "N=45 sharing"
    (jacobian_pattern sharing.Cml_dft.Sharing.builder.Cml_cells.Builder.net)
    ~n:150 ~fill:832 ~digest:"646b2b454b5c9774134a1b7c91141ddf"

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
          Alcotest.test_case "compress sums duplicates in entry order" `Quick
            test_sparse_compress_entry_order;
          Alcotest.test_case "compress matches sort-and-merge reference" `Quick
            test_sparse_compress_matches_reference;
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
          Alcotest.test_case "repivot after an unstable pivot" `Quick
            test_repivot_after_unstable_pivot;
          Alcotest.test_case "repivot on another pattern" `Quick test_repivot_pattern_mismatch;
          Alcotest.test_case "adoption refuses where the search disagrees" `Quick
            test_adopt_refusals;
          Alcotest.test_case "mild value changes adopt" `Quick test_adopt_mostly_accepted;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "edge sizes" `Quick test_ordering_edge_sizes;
          Alcotest.test_case "c432 and N=45 orders pinned" `Quick test_pinned_orders;
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
            prop_ordering_matches_reference;
            prop_natural_fill_cap;
            prop_capped_auto_decision;
            prop_repivot_matches_factorize;
            prop_adopt_is_factorize_in;
          ] );
    ]
