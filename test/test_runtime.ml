(* Tests for the multicore execution runtime (Cml_runtime.Pool) and
   the incremental sparse-LU path it feeds: parallel maps must be
   deterministic and order-preserving, exceptions must propagate, a
   parallel defect campaign must match the sequential one bit for bit,
   and numeric refactorization must agree with a fresh factorization
   on refreshed MNA values. *)

module Pool = Cml_runtime.Pool
module E = Cml_spice.Engine
module T = Cml_spice.Transient

(* ------------------------------------------------------------------ *)
(* Worker pool semantics *)

let test_parallel_map_matches_sequential () =
  let arr = Array.init 257 (fun i -> i - 40) in
  let f x = (x * x) - (3 * x) in
  Alcotest.(check (array int))
    "jobs=4 equals Array.map" (Array.map f arr)
    (Pool.parallel_map ~jobs:4 f arr);
  Alcotest.(check (array int))
    "jobs=1 equals Array.map" (Array.map f arr)
    (Pool.parallel_map ~jobs:1 f arr)

let test_parallel_list_map_order () =
  let xs = List.init 83 (fun i -> 83 - i) in
  Alcotest.(check (list int))
    "list map preserves order" (List.map succ xs)
    (Pool.parallel_list_map ~jobs:4 succ xs)

let test_empty_and_singleton () =
  Alcotest.(check (array int)) "empty" [||] (Pool.parallel_map ~jobs:4 succ [||]);
  Alcotest.(check (array int)) "singleton" [| 8 |] (Pool.parallel_map ~jobs:4 succ [| 7 |])

let test_exception_propagates () =
  Alcotest.check_raises "worker exception re-raised" (Failure "boom 17") (fun () ->
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i = 17 then failwith "boom 17" else i)
           (Array.init 64 Fun.id)))

let test_lowest_index_exception_wins () =
  (* several tasks fail; the re-raised exception must deterministically
     be the lowest-index one regardless of completion order *)
  for _ = 1 to 5 do
    Alcotest.check_raises "lowest failing index" (Failure "fail 5") (fun () ->
        ignore
          (Pool.parallel_map ~jobs:4
             (fun i -> if i >= 5 && i mod 7 = 5 then failwith (Printf.sprintf "fail %d" i) else i)
             (Array.init 120 Fun.id)))
  done

let test_pool_reusable_after_exception () =
  (try
     ignore (Pool.parallel_map ~jobs:4 (fun _ -> failwith "once") (Array.init 32 Fun.id))
   with Failure _ -> ());
  Alcotest.(check (array int))
    "pool still works" (Array.init 32 succ)
    (Pool.parallel_map ~jobs:4 succ (Array.init 32 Fun.id))

let test_default_jobs_positive () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1);
  Alcotest.check_raises "set_default_jobs rejects negatives"
    (Invalid_argument "Pool.set_default_jobs: jobs must be >= 1, or 0 for auto (one per core)")
    (fun () -> Pool.set_default_jobs (-1));
  (* 0 means auto: one job per core *)
  Pool.set_default_jobs 0;
  Alcotest.(check int) "0 resolves to core count" (Domain.recommended_domain_count ())
    (Pool.default_jobs ());
  Pool.set_default_jobs 1

let test_parallel_map_batches_matches_sequential () =
  let f x = (2 * x) - 7 in
  let lift slice = Array.map f slice in
  List.iter
    (fun n ->
      let arr = Array.init n (fun i -> i - 11) in
      List.iter
        (fun jobs ->
          Alcotest.(check (array int))
            (Printf.sprintf "n=%d jobs=%d equals Array.map" n jobs)
            (Array.map f arr)
            (Pool.parallel_map_batches ~jobs lift arr))
        [ 1; 3; 4 ])
    [ 0; 1; 7; 64; 257 ]

let test_parallel_map_batches_respects_bounds () =
  (* every slice f sees is at most [max_batch] long; at jobs = 1 the
     ~4-slices target (25 here) exceeds the cap, so all slices but the
     tail are exactly [max_batch] *)
  let arr = Array.init 100 Fun.id in
  let sizes = ref [] in
  let collect slice =
    sizes := Array.length slice :: !sizes;
    slice
  in
  let got = Pool.parallel_map_batches ~jobs:1 ~max_batch:16 collect arr in
  Alcotest.(check (array int)) "identity over slices" arr got;
  Alcotest.(check (list int)) "slices capped at max_batch" [ 16; 16; 16; 16; 16; 16; 4 ]
    (List.rev !sizes);
  Alcotest.(check bool) "max_batch below 1 rejected" true
    (match Pool.parallel_map_batches ~max_batch:0 Fun.id arr with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_parallel_map_batches_checks_result_length () =
  let arr = Array.init 32 Fun.id in
  Alcotest.(check bool) "length-changing f rejected" true
    (match Pool.parallel_map_batches ~jobs:1 (fun _ -> [| 1 |]) arr with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parallel campaign determinism *)

let test_campaign_parallel_matches_sequential () =
  let golden = Cml_cells.Chain.build ~stages:4 ~freq:1e9 () in
  let defects =
    let all =
      Cml_defects.Sites.enumerate golden.Cml_cells.Chain.builder.Cml_cells.Builder.net
        ~prefix:"x2" ~pipe_values:[ 4e3 ]
    in
    List.filteri (fun i _ -> i < 3) all
  in
  let seq = Cml_defects.Campaign.run ~stages:4 ~freq:1e9 ~dut:2 ~tstop:4e-9 ~jobs:1 ~defects () in
  let par = Cml_defects.Campaign.run ~stages:4 ~freq:1e9 ~dut:2 ~tstop:4e-9 ~jobs:4 ~defects () in
  Alcotest.(check bool)
    "reference identical" true
    (seq.Cml_defects.Campaign.reference = par.Cml_defects.Campaign.reference);
  Alcotest.(check bool)
    "entries identical" true
    (seq.Cml_defects.Campaign.entries = par.Cml_defects.Campaign.entries);
  Alcotest.(check (list (pair string int)))
    "summary identical"
    (Cml_defects.Campaign.summary seq)
    (Cml_defects.Campaign.summary par)

(* ------------------------------------------------------------------ *)
(* Incremental sparse LU *)

let build_system n entries diag =
  let t = Cml_numerics.Sparse.triplet_create n in
  List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add t i j v) entries;
  for i = 0 to n - 1 do
    Cml_numerics.Sparse.add t i i diag
  done;
  let pat = Cml_numerics.Sparse.compress t in
  (pat, Cml_numerics.Sparse.csc_of_pattern pat)

(* the next Newton iteration's load: the same entries, in the same
   order, with new values summed straight into the CSC storage *)
let restamp pat (a : Cml_numerics.Sparse.csc) values =
  let slot = Cml_numerics.Sparse.entry_of_triplet pat in
  Array.fill a.values 0 (Array.length a.values) 0.0;
  List.iteri (fun k v -> a.values.(slot.(k)) <- a.values.(slot.(k)) +. v) values

let refactor_gen =
  (* an MNA-like sequence: one pattern, two sets of values (as between
     Newton iterations), both kept diagonally dominant *)
  QCheck2.Gen.(
    int_range 1 30 >>= fun n ->
    list_size (int_range 0 (4 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range (-1.0) 1.0))
    >>= fun entries ->
    list_size (return (List.length entries)) (float_range (-1.0) 1.0) >>= fun values' ->
    array_size (return n) (float_range (-10.0) 10.0) >>= fun rhs ->
    return (n, entries, values', rhs))

(* Strictly dominant: the random entries are off the diagonal, at most
   4n of them of magnitude at most 1, so a diagonal of 4n + 1 beats
   every row and column sum.  Every pivot search then keeps the
   diagonal, on the first values and on the second alike. *)
let dominant_gen =
  QCheck2.Gen.map
    (fun (n, entries, values', rhs) ->
      let off_diagonal = List.filter (fun ((i, j, _), _) -> i <> j) (List.combine entries values') in
      let entries, values' = List.split off_diagonal in
      (n, entries, values', rhs))
    refactor_gen

let prop_refactorize_matches_factorize =
  QCheck2.Test.make ~name:"refactorize agrees with fresh factorize" ~count:300 dominant_gen
    (fun (n, entries, values', rhs) ->
      let module Lu = Cml_numerics.Sparse_lu in
      let diag = float_of_int ((4 * n) + 1) in
      let pat, a = build_system n entries diag in
      let f = Lu.factorize a in
      (* second Newton iteration: same pattern, new off-diagonal values *)
      restamp pat a (values' @ List.init n (fun _ -> diag));
      if not (Lu.refactorize f a) then
        QCheck2.Test.fail_report "refactorize refused a well-conditioned system"
      else
        let solve f =
          let x = Array.make n 0.0 in
          Lu.solve_into f rhs x;
          x
        in
        let x = solve f in
        (* the same pivots and the same arithmetic order: identical to
           a fresh pivot search on the new values *)
        x = solve (Lu.repivot f a)
        && Cml_numerics.Vec.max_abs_diff x (Lu.solve (Lu.factorize a) rhs) < 1e-8)

let prop_refactorize_residual =
  QCheck2.Test.make ~name:"refactorize solve has small residual" ~count:300 refactor_gen
    (fun (n, entries, values', rhs) ->
      let diag = float_of_int (4 * n) in
      let pat, a = build_system n entries diag in
      let f = Cml_numerics.Sparse_lu.factorize a in
      restamp pat a (values' @ List.init n (fun _ -> diag));
      if not (Cml_numerics.Sparse_lu.refactorize f a) then true
      else
        let x = Cml_numerics.Sparse_lu.solve f rhs in
        let r = Cml_numerics.Vec.sub (Cml_numerics.Sparse.mul_vec a x) rhs in
        Cml_numerics.Vec.norm_inf r < 1e-7 *. (1.0 +. Cml_numerics.Vec.norm_inf rhs))

let test_refactorize_rejects_foreign_matrix () =
  let _, a = build_system 5 [ (0, 1, -1.0); (3, 2, 0.5) ] 10.0 in
  let _, b = build_system 5 [ (0, 1, -1.0); (3, 2, 0.5) ] 10.0 in
  let f = Cml_numerics.Sparse_lu.factorize a in
  Alcotest.(check bool) "same storage reusable" true (Cml_numerics.Sparse_lu.reusable f a);
  Alcotest.(check bool)
    "structurally equal but distinct storage is rejected" false
    (Cml_numerics.Sparse_lu.reusable f b);
  Alcotest.(check bool) "refactorize refuses it" false (Cml_numerics.Sparse_lu.refactorize f b)

(* The kernels index without bounds checks, so a caller array of the
   wrong length must be refused before any access. *)
let test_kernels_reject_wrong_lengths () =
  let module Lu = Cml_numerics.Sparse_lu in
  let _, a = build_system 5 [ (0, 1, -1.0); (3, 2, 0.5) ] 10.0 in
  let f = Lu.factorize a in
  let v = Array.make 5 1.0 and out = Array.make 5 0.0 in
  let rejects name g =
    Alcotest.(check bool) name true (match g () with _ -> false | exception Invalid_argument _ -> true)
  in
  rejects "short values" (fun () -> Lu.refactorize f { a with values = Array.make 3 1.0 });
  rejects "long values" (fun () -> Lu.refactorize f { a with values = Array.make 99 1.0 });
  rejects "short rhs" (fun () -> Lu.solve_into f (Array.make 4 1.0) out);
  rejects "long rhs" (fun () -> Lu.solve_into f (Array.make 6 1.0) out);
  rejects "short output" (fun () -> Lu.solve_into f v (Array.make 4 0.0));
  rejects "output aliases rhs" (fun () -> Lu.solve_into f v v);
  rejects "chord: short values" (fun () ->
      Lu.solve_residual_into f { a with values = Array.make 3 1.0 } v v out);
  rejects "chord: short x" (fun () -> Lu.solve_residual_into f a (Array.make 4 1.0) v out);
  rejects "chord: short output" (fun () -> Lu.solve_residual_into f a v v (Array.make 4 0.0));
  rejects "chord: output aliases x" (fun () -> Lu.solve_residual_into f a out v out);
  (* refused calls leave the factor intact: the chord step from x
     lands on the solution of A x' = b *)
  Alcotest.(check bool) "still refactorizes" true (Lu.refactorize f a);
  let x = Array.init 5 float_of_int in
  Lu.solve_residual_into f a x v out;
  let x' = Array.mapi (fun i d -> x.(i) +. d) out in
  Alcotest.(check bool) "x + d solves A x' = b" true
    (Cml_numerics.Vec.max_abs_diff x' (Lu.solve f v) < 1e-12)

let test_refactorize_rejects_degenerate_pivot () =
  let pat, a = build_system 4 [ (0, 1, -1.0); (1, 0, -1.0) ] 8.0 in
  let f = Cml_numerics.Sparse_lu.factorize a in
  (* zero out everything: every pivot collapses, refactorize must
     report failure instead of dividing by ~0 *)
  restamp pat a (List.init 6 (fun _ -> 0.0));
  Alcotest.(check bool) "degenerate system refused" false (Cml_numerics.Sparse_lu.refactorize f a)

(* ------------------------------------------------------------------ *)
(* Engine integration: symbolic analysis is paid once per pattern *)

let test_transient_amortises_symbolic () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile net in
  ignore (T.run sim net (T.config ~tstop:1e-9 ~max_step:20e-12 ()));
  let stats = E.solver_stats sim in
  Alcotest.(check bool)
    "at least one full factorization" true
    (stats.E.symbolic_factorizations >= 1);
  Alcotest.(check bool)
    (Printf.sprintf "refactorizations dominate (%d symbolic, %d numeric)"
       stats.E.symbolic_factorizations stats.E.numeric_refactorizations)
    true
    (stats.E.numeric_refactorizations > 10 * stats.E.symbolic_factorizations)

(* The paper's 8-stage buffer chain is only 32 unknowns, yet it runs
   the sparse LU with the default options: one ordering and symbolic
   analysis, numeric refactorizations after that.  The 10 ns
   transient's Newton iteration and bypass counts are pinned — the
   same as a dense LU gives on this design — so a change of linear
   solver that moved the Newton trajectory shows here. *)
let test_chain_runs_sparse () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile ~options:E.default_options net in
  ignore (T.run sim net (T.config ~tstop:10e-9 ~max_step:10e-12 ()));
  let stats = E.solver_stats sim in
  Alcotest.(check int) "unknowns" 32 (E.unknown_count sim);
  Alcotest.(check bool)
    (Printf.sprintf "factor has an ordering (%S)" stats.E.lu_ordering)
    true (stats.E.lu_ordering <> "");
  Alcotest.(check bool) "at least one symbolic factorization" true
    (stats.E.symbolic_factorizations >= 1);
  Alcotest.(check int) "newton iterations" 2608 stats.E.newton_iters;
  Alcotest.(check int) "device loads" 62592 stats.E.device_loads;
  Alcotest.(check int) "bypassed loads" 52137 stats.E.bypassed_loads;
  Alcotest.(check int) "no factor reuse: refactoring is cheap" 0 stats.E.chord_steps

(* ------------------------------------------------------------------ *)
(* Allocation: junction evaluation and the Newton loop box nothing, so
   a warm DC solve allocates little more than its result and a
   transient little more than its per-step bookkeeping *)

let minor_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* bypass off: every load full-evaluates every junction device *)
let warm_dc_words net =
  let sim = E.compile ~options:{ E.default_options with E.bypass = false } net in
  let x = E.dc_operating_point sim in
  snd (minor_words (fun () -> E.dc_from sim x))

let check_warm_dc name net =
  let w = warm_dc_words net in
  Alcotest.(check bool) (Printf.sprintf "%s: %.0f words <= 128" name w) true (w <= 128.0)

let test_warm_dc_allocation () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  check_warm_dc "8-stage chain" chain.Cml_cells.Chain.builder.Cml_cells.Builder.net;
  let c432 = Cml_logic.Bench_circuits.c432_surrogate () in
  check_warm_dc "c432 surrogate"
    (Cml_cells.Compile.netlist (Cml_cells.Compile.compile ~freq:200e6 c432))

let test_transient_allocation () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile net in
  let r, w = minor_words (fun () -> T.run sim net (T.config ~tstop:10e-9 ~max_step:10e-12 ())) in
  let per_iter = w /. float_of_int r.T.stats.T.newton_iters in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per Newton iteration <= 48" per_iter)
    true (per_iter <= 48.0)

(* ------------------------------------------------------------------ *)
(* Monte-Carlo: one symbolic analysis per netlist per run *)

module MC = Cml_dft.Montecarlo

(* the paper's N = 45 sharing block as the Monte-Carlo builds it: 150
   unknowns whose natural order fills 93% of the lower triangle *)
let sharing45 () = Cml_dft.Sharing.build ~multi_emitter:true ~n:45 ()

let test_sharing_jacobian_goes_amd () =
  let built = sharing45 () in
  let sim = E.compile built.Cml_dft.Sharing.builder.Cml_cells.Builder.net in
  ignore (E.dc_operating_point sim);
  let stats = E.solver_stats sim in
  Alcotest.(check string) "Auto picks amd" "amd" stats.E.lu_ordering;
  Alcotest.(check bool)
    (Printf.sprintf "fill ratio %.2f < 2" stats.E.lu_fill_ratio)
    true (stats.E.lu_fill_ratio < 2.0)

let counter name (r : MC.result) =
  match List.assoc_opt name r.MC.metrics with
  | Some (Cml_telemetry.Metrics.Counter c) -> c
  | Some _ | None -> 0

let mc_seed = 100000
let mc ~jobs () = MC.run ~n:45 ~samples:8 ~jobs ~seed:mc_seed ()

let test_mc_shares_symbolic () =
  let r = mc ~jobs:2 () in
  Alcotest.(check int) "every sample adopts the nominal analysis" 16
    (counter "solver.shared_symbolic" r);
  Alcotest.(check int) "no symbolic analysis of its own" 0
    (counter "solver.symbolic_factorizations" r);
  Alcotest.(check int) "no false alarms" 0 r.MC.false_alarms;
  Alcotest.(check int) "no misses" 0 r.MC.missed

let test_mc_jobs_parity () =
  let r1 = mc ~jobs:1 () and r2 = mc ~jobs:2 () in
  Alcotest.(check int) "false alarms" r1.MC.false_alarms r2.MC.false_alarms;
  Alcotest.(check int) "missed" r1.MC.missed r2.MC.missed;
  Alcotest.(check bool) "good vouts bit-identical" true (r1.MC.good_vouts = r2.MC.good_vouts);
  Alcotest.(check bool) "bad vouts bit-identical" true (r1.MC.bad_vouts = r2.MC.bad_vouts)

(* Plain Newton on the engine's linearised system ([E.newton_system]),
   every step solved by the dense LU, which eliminates in natural
   column order with row pivoting — no ordering, no shared analysis. *)
let dense_newton sim x0 =
  let n = E.unknown_count sim in
  let rec go x iters =
    if iters = 0 then Alcotest.fail "dense reference Newton did not converge";
    let g, b = E.newton_system sim x in
    let m = Cml_numerics.Dense.create n in
    List.iter (fun (i, j, v) -> Cml_numerics.Dense.add_entry m i j v) g;
    let x' = Cml_numerics.Dense.solve m b in
    if E.converged sim x x' then x' else go x' (iters - 1)
  in
  go x0 50

(* The reference re-solves the same perturbed samples (seed + k, the
   run's default defect) with [dense_newton], warm-started from the
   nominal operating point like the run. *)
let test_mc_matches_natural_order () =
  let r = mc ~jobs:2 () in
  let built = sharing45 () in
  let golden = built.Cml_dft.Sharing.builder.Cml_cells.Builder.net in
  let faulty =
    Cml_defects.Inject.apply golden (Cml_defects.Defect.Pipe { device = "x23.q3"; r = 4e3 })
  in
  let vouts net =
    let x0 = E.dc_operating_point (E.compile net) in
    Array.init 8 (fun k ->
        let sim = E.compile (Cml_defects.Variation.perturb ~seed:(mc_seed + k) net) in
        E.voltage (dense_newton sim x0) built.Cml_dft.Sharing.readout.Cml_dft.Readout.vout)
  in
  let tol = 10.0 *. E.default_options.E.vntol in
  let dev =
    Float.max
      (Cml_numerics.Vec.max_abs_diff r.MC.good_vouts (vouts golden))
      (Cml_numerics.Vec.max_abs_diff r.MC.bad_vouts (vouts faulty))
  in
  Alcotest.(check bool) (Printf.sprintf "vouts within 10 x vntol (%.2e V)" dev) true (dev <= tol)

(* Factor reuse is a property of the input: only a system whose
   refactorization costs more than an extra iteration's assembly and
   solve takes chord steps.  The full c432 surrogate (949 unknowns)
   does; its 430-unknown n36 cone and the N = 45 sharing block (150
   unknowns) do not. *)
let test_factor_reuse_rule () =
  let chord sim = (E.solver_stats sim).E.chord_steps in
  let tstop = 0.5e-9 in
  let cfg = T.config ~tstop ~max_step:10e-12 () in
  let design = Cml_cells.Compile.compile ~freq:200e6 (Cml_logic.Bench_circuits.c432_surrogate ()) in
  let golden = Cml_cells.Compile.netlist design in
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let full = E.compile golden in
  let reference = T.run ~breakpoints full golden cfg in
  (* pinned like the chain's counts.  An identical system after a
     chord step still has a residual, so the identical-system skip
     fires only after exact solves: once on this run. *)
  let s = E.solver_stats full in
  Alcotest.(check int) "c432 newton iterations" 753 s.E.newton_iters;
  Alcotest.(check int) "c432 chord steps" 514 s.E.chord_steps;
  Alcotest.(check int) "c432 numeric refactorizations" 235 s.E.numeric_refactorizations;
  Alcotest.(check int) "c432 skipped solves" 1 s.E.skipped_solves;
  let cone = Cml_defects.Cone.drive (Cml_defects.Cone.extract golden ~cells:[ "n36" ]) ~reference in
  let cnet = Cml_defects.Cone.netlist cone in
  let csim = E.compile cnet in
  ignore (T.run ~guide:(Cml_defects.Cone.guide cone) ~breakpoints csim cnet cfg);
  Alcotest.(check int) "n36 cone" 0 (chord csim);
  let net = (sharing45 ()).Cml_dft.Sharing.builder.Cml_cells.Builder.net in
  let ssim = E.compile net in
  ignore (E.dc_operating_point ssim);
  Alcotest.(check int) "N=45 sharing dc" 0 (chord ssim);
  ignore (T.run ssim net cfg);
  Alcotest.(check int) "N=45 sharing transient" 0 (chord ssim)

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map matches sequential" `Quick
            test_parallel_map_matches_sequential;
          Alcotest.test_case "parallel_list_map preserves order" `Quick
            test_parallel_list_map_order;
          Alcotest.test_case "empty and singleton inputs" `Quick test_empty_and_singleton;
          Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
          Alcotest.test_case "lowest-index exception wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "pool reusable after exception" `Quick
            test_pool_reusable_after_exception;
          Alcotest.test_case "default_jobs sanity" `Quick test_default_jobs_positive;
          Alcotest.test_case "map_batches matches sequential" `Quick
            test_parallel_map_batches_matches_sequential;
          Alcotest.test_case "map_batches respects bounds" `Quick
            test_parallel_map_batches_respects_bounds;
          Alcotest.test_case "map_batches checks result length" `Quick
            test_parallel_map_batches_checks_result_length;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "parallel campaign matches sequential" `Slow
            test_campaign_parallel_matches_sequential;
        ] );
      ( "incremental-lu",
        [
          QCheck_alcotest.to_alcotest prop_refactorize_matches_factorize;
          QCheck_alcotest.to_alcotest prop_refactorize_residual;
          Alcotest.test_case "rejects foreign matrix" `Quick
            test_refactorize_rejects_foreign_matrix;
          Alcotest.test_case "rejects degenerate pivot" `Quick
            test_refactorize_rejects_degenerate_pivot;
          Alcotest.test_case "kernels reject wrong lengths" `Quick
            test_kernels_reject_wrong_lengths;
          Alcotest.test_case "transient amortises symbolic analysis" `Slow
            test_transient_amortises_symbolic;
          Alcotest.test_case "8-stage chain runs sparse by default" `Quick
            test_chain_runs_sparse;
          Alcotest.test_case "factor reuse only where refactoring costs more" `Slow
            test_factor_reuse_rule;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "warm bypass-off dc_from allocates <= 128 words" `Quick
            test_warm_dc_allocation;
          Alcotest.test_case "chain transient allocates <= 48 words per iteration" `Quick
            test_transient_allocation;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "N=45 sharing Jacobian goes amd" `Quick
            test_sharing_jacobian_goes_amd;
          Alcotest.test_case "samples share one symbolic analysis" `Quick
            test_mc_shares_symbolic;
          Alcotest.test_case "jobs=1 and jobs=2 bit-identical" `Quick test_mc_jobs_parity;
          Alcotest.test_case "matches natural-order dense LU within 10 x vntol" `Quick
            test_mc_matches_natural_order;
        ] );
    ]
