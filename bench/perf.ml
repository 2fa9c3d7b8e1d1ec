(* Bechamel micro-benchmarks of the simulator kernels (sparse LU and
   the c432 column ordering, the dense reference LU, the numeric-only
   refactorization, MNA assembly via a warm DC solve, Newton DC, one
   transient of the paper's 8-buffer chain and one of the c432
   surrogate, waveform measurements)
   plus two system-level probes of the execution runtime:

   - solver reuse: how many full symbolic factorizations vs cheap
     numeric refactorizations a chain transient performs (the sparse
     engine must pay the symbolic cost at most once per Jacobian
     pattern, plus pivot-degradation fallbacks);
   - campaign scaling: wall-clock of the same defect campaign at
     jobs = 1 and jobs = default, with a byte-identical summary check.

   [run ~json:"BENCH_spice.json" ()] additionally dumps every number
   as JSON so the timing trajectory is machine-readable across PRs. *)

module E = Cml_spice.Engine
module T = Cml_spice.Transient

let sparse_system n =
  let t = Cml_numerics.Sparse.triplet_create n in
  for i = 0 to n - 1 do
    Cml_numerics.Sparse.add t i i 4.0;
    if i > 0 then Cml_numerics.Sparse.add t i (i - 1) (-1.0);
    if i < n - 1 then Cml_numerics.Sparse.add t i (i + 1) (-1.0);
    if i + 7 < n then Cml_numerics.Sparse.add t i (i + 7) (-0.5)
  done;
  Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress t)

let dense_system n =
  let m = Cml_numerics.Dense.create n in
  for i = 0 to n - 1 do
    Cml_numerics.Dense.add_entry m i i 4.0;
    if i > 0 then Cml_numerics.Dense.add_entry m i (i - 1) (-1.0);
    if i < n - 1 then Cml_numerics.Dense.add_entry m i (i + 1) (-1.0)
  done;
  m

(* The chain transient read against a host-speed reference: 200
   rounds of one chain transient (compile and a 2 ns run, as the
   kernel) followed by 20 solves of the dense-LU reference kernel.
   Returns the median over the rounds of the per-round ratio (chain
   time over one reference solve) and each kernel's minimum, in ns.
   The reference runs no engine code, and a round shows both kernels
   the same host state, so the ratio reads the code: on a 2-vCPU host
   whose transient took 2.2-2.7 ms, unchanged code read 44-48 in 20
   processes, and a min-over-rounds form of the ratio read 47-53 with
   the host at 2.4 and at 4.5 ms.  Two bechamel estimates cannot do
   this: each kernel runs for its own second, and an estimate includes
   the collections of whatever else the process keeps live, so the
   same code read 51-63.  The dense
   solve's allocations make the reference sensitive to the heap too,
   so both callers take the reading first, on a near-empty heap. *)
let chain_reference () =
  let rounds = 200 in
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 () in
  let d100 = dense_system 100 in
  let rhs100 = Array.init 100 (fun i -> cos (float_of_int i)) in
  let elapsed_ns f =
    let t0 = Cml_telemetry.Clock.now_ns () in
    f ();
    Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0)
  in
  let samples =
    Array.init rounds (fun _ ->
        let chain_ns = elapsed_ns (fun () -> ignore (T.run (E.compile net) net cfg)) in
        let ref_ns =
          elapsed_ns (fun () ->
              for _ = 1 to 20 do
                ignore (Cml_numerics.Dense.solve d100 rhs100)
              done)
          /. 20.0
        in
        (chain_ns, ref_ns))
  in
  let ratios = Array.map (fun (c, r) -> c /. r) samples in
  Array.sort compare ratios;
  let min_of f = Array.fold_left (fun m s -> Float.min m (f s)) infinity samples in
  (ratios.(rounds / 2), min_of fst, min_of snd)

(* The compiled c432-class design: the .bench->CML compiler's output
   is the first workload whose MNA system is big enough (~950
   unknowns) that the sparse-LU column ordering dominates the solve
   time.  The Jacobian pattern is extracted at the DC operating point;
   built once and shared across bechamel passes and the ordering
   probe. *)
let c432 =
  lazy
    (let design =
       Cml_cells.Compile.compile ~freq:200e6 (Cml_logic.Bench_circuits.c432_surrogate ())
     in
     let net = Cml_cells.Compile.netlist design in
     let sim = E.compile net in
     let x = E.dc_operating_point sim in
     let g, _ = E.ac_system sim x in
     let n = E.unknown_count sim in
     let tr = Cml_numerics.Sparse.triplet_create n in
     List.iter (fun (i, j, v) -> Cml_numerics.Sparse.add tr i j v) g;
     (net, Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress tr), n))

(* One Monte-Carlo sample pair on the paper's N = 45 sharing block
   after the nominal solves, what [Montecarlo.run] does per sample:
   perturb, compile (on the nominal layout, which the compile table
   keeps with its symbolic LU analysis) and warm-start the DC solve,
   for the fault-free and the faulty netlist.  The nominal operating
   points are solved once; the perturbation seed is fixed so every run
   does the same work. *)
let mc_nominals =
  lazy
    (let built = Cml_dft.Sharing.build ~multi_emitter:true ~n:45 () in
     let golden = built.Cml_dft.Sharing.builder.Cml_cells.Builder.net in
     let faulty =
       Cml_defects.Inject.apply golden (Cml_defects.Defect.Pipe { device = "x23.q3"; r = 4e3 })
     in
     let nominal net =
       let sim = E.compile net in
       (net, E.dc_operating_point sim)
     in
     [ nominal golden; nominal faulty ])

(* A compiled sim at its own DC operating point.  A warm [dc_from]
   from there is two loads, every junction replaying its bypass cache,
   and one solve reusing the factor: the kernel is dominated by MNA
   assembly. *)
let at_operating_point net =
  let sim = E.compile net in
  (sim, E.dc_operating_point sim)

let mc_sample_pair nominals =
  List.iter
    (fun (net, x0) ->
      let sim = E.compile (Cml_defects.Variation.perturb ~seed:1 net) in
      ignore (E.dc_from sim x0))
    nominals

let tests () =
  let open Bechamel in
  let a200 = sparse_system 200 in
  let d100 = dense_system 100 in
  let rhs200 = Array.init 200 (fun i -> sin (float_of_int i)) in
  let rhs100 = Array.init 100 (fun i -> cos (float_of_int i)) in
  let refactor200 = Cml_numerics.Sparse_lu.factorize a200 in
  let c432_net, c432_a, c432_n = Lazy.force c432 in
  let c432_rhs = Array.init c432_n (fun i -> sin (float_of_int i)) in
  let c432_amd = Cml_numerics.Sparse_lu.factorize ~ordering:Cml_numerics.Sparse_lu.Amd c432_a in
  let c432_refactor = Cml_numerics.Sparse_lu.factorize c432_a in
  let c432_out = Array.make c432_n 0.0 in
  let c432_unseeded = Cml_spice.Netlist.copy c432_net in
  Cml_spice.Netlist.clear_nodeset c432_unseeded;
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let chain_net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let mc = Lazy.force mc_nominals in
  let c432_sim, c432_x = at_operating_point c432_net in
  let chain_sim, chain_x = at_operating_point chain_net in
  let wave =
    let times = Array.init 5000 (fun i -> float_of_int i *. 1e-11) in
    let values = Array.map (fun t -> 3.0 +. (0.25 *. sin (2.0 *. Float.pi *. 1e8 *. t))) times in
    Cml_wave.Wave.create times values
  in
  [
    Test.make ~name:"sparse LU factor+solve (n=200)" (Staged.stage (fun () ->
        ignore (Cml_numerics.Sparse_lu.solve (Cml_numerics.Sparse_lu.factorize a200) rhs200)));
    Test.make ~name:"sparse LU refactorize+solve (n=200)" (Staged.stage (fun () ->
        assert (Cml_numerics.Sparse_lu.refactorize refactor200 a200);
        ignore (Cml_numerics.Sparse_lu.solve refactor200 rhs200)));
    Test.make ~name:"dense LU factor+solve (n=100)" (Staged.stage (fun () ->
        ignore (Cml_numerics.Dense.solve d100 rhs100)));
    (* the fill-reducing path on a design-sized Jacobian; the
       natural-order equivalent runs ~40x longer and is measured once
       by [ordering_probe] instead of as a kernel *)
    Test.make ~name:"c432 LU factor+solve (amd)" (Staged.stage (fun () ->
        ignore
          (Cml_numerics.Sparse_lu.solve
             (Cml_numerics.Sparse_lu.factorize ~ordering:Cml_numerics.Sparse_lu.Amd c432_a)
             c432_rhs)));
    (* the column ordering alone, and the path a fresh c432
       operating point takes: [Auto] prices the natural order only up
       to its cutoff, then orders with amd *)
    Test.make ~name:"c432 AMD ordering" (Staged.stage (fun () ->
        ignore (Cml_numerics.Ordering.amd_with_fill c432_a)));
    Test.make ~name:"c432 LU factor+solve (auto)" (Staged.stage (fun () ->
        ignore
          (Cml_numerics.Sparse_lu.solve (Cml_numerics.Sparse_lu.factorize c432_a) c432_rhs)));
    (* a stability fallback's full factorization: a fresh pivot
       search in the column order the first factorization chose *)
    Test.make ~name:"c432 LU repivot+solve (kept amd order)" (Staged.stage (fun () ->
        ignore
          (Cml_numerics.Sparse_lu.solve
             (Cml_numerics.Sparse_lu.repivot c432_amd c432_a)
             c432_rhs)));
    (* the numeric kernels a c432 Newton iteration runs, without
       bounds checks: one refactorization in the engine's order and
       one solve into a caller-owned vector *)
    Test.make ~name:"c432 LU refactorize+solve" (Staged.stage (fun () ->
        assert (Cml_numerics.Sparse_lu.refactorize c432_refactor c432_a);
        Cml_numerics.Sparse_lu.solve_into c432_refactor c432_rhs c432_out));
    (* the campaign's reference run in miniature: large enough that
       the engine reuses older LU factors (chord steps) *)
    Test.make ~name:"c432 transient (0.5 ns)" (Staged.stage (fun () ->
        let sim = E.compile c432_net in
        ignore (T.run sim c432_net (T.config ~tstop:0.5e-9 ~max_step:10e-12 ()))));
    (* plain Newton from the compiled design's nodeset (3-4
       iterations), and the zero-start homotopy path without it *)
    Test.make ~name:"c432 DC operating point" (Staged.stage (fun () ->
        ignore (E.dc_operating_point (E.compile c432_net))));
    Test.make ~name:"c432 DC operating point (zero start)" (Staged.stage (fun () ->
        ignore (E.dc_operating_point (E.compile c432_unseeded))));
    Test.make ~name:"c432 warm dc_from at its operating point" (Staged.stage (fun () ->
        ignore (E.dc_from c432_sim c432_x)));
    Test.make ~name:"chain warm dc_from at its operating point" (Staged.stage (fun () ->
        ignore (E.dc_from chain_sim chain_x)));
    Test.make ~name:"chain DC operating point" (Staged.stage (fun () ->
        let sim = E.compile chain_net in
        ignore (E.dc_operating_point sim)));
    Test.make ~name:"chain transient (2 ns)" (Staged.stage (fun () ->
        let sim = E.compile chain_net in
        ignore (T.run sim chain_net (T.config ~tstop:2e-9 ~max_step:10e-12 ()))));
    Test.make ~name:"batched campaign transient (8 lanes)" (Staged.stage (fun () ->
        (* the campaign hot loop in miniature: eight variants of the
           chain run back to back as one batch *)
        let lanes = Array.init 8 (fun _ -> (E.compile chain_net, None)) in
        let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 ~record_every:0 () in
        Array.iter
          (function T.Lane_done _ -> () | T.Lane_failed _ | T.Lane_incompatible -> assert false)
          (T.run_batch lanes chain_net cfg)));
    Test.make ~name:"Monte-Carlo sample pair (N=45, warm)" (Staged.stage (fun () ->
        mc_sample_pair mc));
    Test.make ~name:"crossing detection (5k samples)" (Staged.stage (fun () ->
        ignore (Cml_wave.Measure.crossings wave ~level:3.0)));
  ]

let kernel_estimates () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1500 ~quota:(Time.second 1.0) ~kde:(Some 500) () in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (tests ()))
  in
  let results =
    List.map
      (fun instance -> Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
           ~predictors:[| Measure.run |]) instance raw)
      instances
  in
  let merged = Analyze.merge (Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]) instances results in
  let acc = ref [] in
  Hashtbl.iter
    (fun _ tbl ->
      Hashtbl.iter
        (fun name result ->
          match Bechamel.Analyze.OLS.estimates result with
          | Some [ est ] -> acc := (name, est) :: !acc
          | Some _ | None -> ())
        tbl)
    merged;
  List.sort compare !acc

let chain_transient_name = "kernels chain transient (2 ns)"

(* one run of the chain-transient kernel; the engine should do its
   symbolic analysis once and refactorize everywhere else, and
   allocate little per Newton iteration (minor words, the run's total
   over its iterations) *)
let solver_reuse () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile net in
  let w0 = Gc.minor_words () in
  ignore (T.run sim net (T.config ~tstop:2e-9 ~max_step:10e-12 ()));
  let words = Gc.minor_words () -. w0 in
  let stats = E.solver_stats sim in
  (E.unknown_count sim, stats, words /. float_of_int (max 1 stats.E.newton_iters))

(* Amd-vs-natural comparison on the compiled design's Jacobian: fill
   (nnz of L+U) is deterministic, the factor+solve wall clocks are
   best-of-2.  The natural ordering is only ever run here — it is far
   too slow for the bechamel quota, which is the point being
   recorded. *)
type ordering_probe = {
  o_unknowns : int;
  o_nnz_a : int;
  o_nnz_natural : int;
  o_nnz_amd : int;
  o_natural_ms : float;
  o_amd_ms : float;
}

let ordering_reduction p =
  1.0 -. (float_of_int p.o_nnz_amd /. float_of_int (max 1 p.o_nnz_natural))

let ordering_probe () =
  let _, a, n = Lazy.force c432 in
  let rhs = Array.init n (fun i -> sin (float_of_int i)) in
  let measure ordering =
    let nnz = ref 0 and best = ref infinity in
    for _ = 1 to 2 do
      let t0 = Unix.gettimeofday () in
      let f = Cml_numerics.Sparse_lu.factorize ~ordering a in
      ignore (Cml_numerics.Sparse_lu.solve f rhs);
      let dt = 1e3 *. (Unix.gettimeofday () -. t0) in
      let l, u = Cml_numerics.Sparse_lu.lu_nnz f in
      nnz := l + u;
      if dt < !best then best := dt
    done;
    (!nnz, !best)
  in
  let nnz_natural, natural_ms = measure Cml_numerics.Sparse_lu.Natural in
  let nnz_amd, amd_ms = measure Cml_numerics.Sparse_lu.Amd in
  {
    o_unknowns = n;
    o_nnz_a = Cml_numerics.Sparse.nnz a;
    o_nnz_natural = nnz_natural;
    o_nnz_amd = nnz_amd;
    o_natural_ms = natural_ms;
    o_amd_ms = amd_ms;
  }

(* enough variants that a --jobs 4 run keeps every domain busy for
   several tasks (the old 4-defect batch degenerated to one task per
   domain and measured mostly the sequential reference simulation) *)
let campaign_defects () =
  let golden = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let all =
    Cml_defects.Sites.enumerate golden.Cml_cells.Chain.builder.Cml_cells.Builder.net
      ~prefix:"x3" ~pipe_values:[ 1e3; 2e3; 4e3 ]
  in
  List.filteri (fun i _ -> i < 32) all

let time_campaign ~jobs defects =
  let t0 = Unix.gettimeofday () in
  let c = Cml_defects.Campaign.run ~jobs ~tstop:10e-9 ~defects () in
  (Unix.gettimeofday () -. t0, Cml_defects.Campaign.summary c)

(* ------------------------------------------------------------------ *)
(* JSON trajectory: the bench file is a history — each [--json] run
   appends one entry, so the timing record accumulates across PRs
   instead of being overwritten.  A schema-1 file (single object) is
   migrated in place into the first history entry. *)

module J = Cml_telemetry.Json
module Trend = Cml_telemetry.Trend

let entry_json ~jobs ~cores ~kernels ~nunk ~(stats : E.solver_stats) ~ordering ~campaign
    ~chain_reference:(ratio, chain_ns, ref_ns) =
  let t1, tn, ndefects, summaries_match = campaign in
  J.Obj
    [
      ("jobs", J.Num (float_of_int jobs));
      ("cores", J.Num (float_of_int cores));
      ( "chain_reference",
        J.Obj
          [
            ("ratio", J.Num ratio);
            ("chain_transient_ns", J.Num chain_ns);
            ("dense_lu_ns", J.Num ref_ns);
          ] );
      ( "kernels",
        J.List
          (List.map
             (fun (name, ns) -> J.Obj [ ("name", J.Str name); ("ns_per_run", J.Num ns) ])
             kernels) );
      ( "solver",
        J.Obj
          [
            ("chain_unknowns", J.Num (float_of_int nunk));
            ("symbolic_factorizations", J.Num (float_of_int stats.E.symbolic_factorizations));
            ("numeric_refactorizations", J.Num (float_of_int stats.E.numeric_refactorizations));
            ("newton_iters", J.Num (float_of_int stats.E.newton_iters));
            ("device_loads", J.Num (float_of_int stats.E.device_loads));
            ("bypassed_loads", J.Num (float_of_int stats.E.bypassed_loads));
            ("lu_nnz_factors", J.Num (float_of_int stats.E.lu_nnz_factors));
            ("lu_fill_ratio", J.Num stats.E.lu_fill_ratio);
            ("lu_ordering", J.Str stats.E.lu_ordering);
          ] );
      ( "ordering",
        J.Obj
          [
            ("design", J.Str "c432_surrogate");
            ("unknowns", J.Num (float_of_int ordering.o_unknowns));
            ("nnz_a", J.Num (float_of_int ordering.o_nnz_a));
            ("nnz_natural", J.Num (float_of_int ordering.o_nnz_natural));
            ("nnz_amd", J.Num (float_of_int ordering.o_nnz_amd));
            ("fill_reduction", J.Num (ordering_reduction ordering));
            ("natural_ms", J.Num ordering.o_natural_ms);
            ("amd_ms", J.Num ordering.o_amd_ms);
            ( "speedup",
              J.Num
                (if ordering.o_amd_ms > 0.0 then ordering.o_natural_ms /. ordering.o_amd_ms
                 else 0.0) );
          ] );
      ( "campaign",
        J.Obj
          [
            ("defects", J.Num (float_of_int ndefects));
            ("jobs1_s", J.Num t1);
            ("jobsN_s", J.Num tn);
            ("speedup", J.Num (if tn > 0.0 then t1 /. tn else 0.0));
            ("summaries_match", J.Bool summaries_match);
          ] );
    ]

let load_history path =
  if not (Sys.file_exists path) then []
  else
    match J.parse_file path with
    | exception (J.Parse_error _ | Sys_error _) -> []
    | v -> (
        match J.member "schema" v with
        | Some (J.Str "cml-dft-perf/1") -> (
            (* pre-history file: the whole object is the only entry *)
            match v with
            | J.Obj members -> [ J.Obj (List.filter (fun (k, _) -> k <> "schema") members) ]
            | _ -> [])
        | Some (J.Str "cml-dft-perf/2") -> (
            match J.member "history" v with Some (J.List entries) -> entries | _ -> [])
        | _ -> [])

let write_history path entries =
  J.write_file path (J.Obj [ ("schema", J.Str "cml-dft-perf/2"); ("history", J.List entries) ])

let entry_kernels entry =
  match J.member "kernels" entry with
  | Some (J.List ks) ->
      List.filter_map
        (fun k ->
          match (J.member "name" k, J.member "ns_per_run" k) with
          | Some (J.Str name), Some (J.Num ns) -> Some (name, ns)
          | _ -> None)
        ks
  | _ -> []

(* kernels of the new run that got slower than their per-kernel limit
   allows vs the baseline entry: [(name, old_ns, new_ns)] *)
let regressions ~baseline ~kernels =
  let old_kernels = entry_kernels baseline in
  List.filter_map
    (fun (name, ns) ->
      match List.assoc_opt name old_kernels with
      | Some old_ns when old_ns > 0.0 && ns > Trend.kernel_limit name *. old_ns ->
          Some (name, old_ns, ns)
      | Some _ | None -> None)
    kernels


let entry_campaign entry =
  match J.member "campaign" entry with
  | Some c -> (
      match (J.member "jobs1_s" c, J.member "jobsN_s" c) with
      | Some (J.Num t1), Some (J.Num tn) -> Some (t1, tn)
      | _ -> None)
  | _ -> None

let entry_chain_reference entry =
  match Option.bind (J.member "chain_reference" entry) (J.member "ratio") with
  | Some (J.Num ratio) -> Some ratio
  | _ -> None

(* Wall clocks depend on the host: the campaign probe's on the worker
   count and the cores, and even the single-threaded kernels' on the
   machine the entry was recorded on.  The baseline is therefore the
   last history entry recorded at the same jobs AND cores — comparing
   against an entry from another setting (a jobs=1 run, a 1-core host)
   would flag a phantom regression or mask a real one. *)
let entry_setting entry =
  match (J.member "jobs" entry, J.member "cores" entry) with
  | Some (J.Num j), Some (J.Num c) -> Some (int_of_float j, int_of_float c)
  | _ -> None

let last_matching ~jobs ~cores history =
  List.find_opt (fun e -> entry_setting e = Some (jobs, cores)) (List.rev history)

let campaign_regressions ~baseline ~t1 ~tn =
  match entry_campaign baseline with
  | None -> []
  | Some (o1, on) ->
      List.filter_map
        (fun (label, old_s, new_s) ->
          if old_s > 0.0 && new_s > Trend.campaign_limit *. old_s then Some (label, old_s, new_s)
          else None)
        [ ("campaign probe jobs=1 (s)", o1, t1); ("campaign probe jobs=N (s)", on, tn) ]

(* [cmldft report]-style trajectory table: every kernel and the
   campaign probe against the baseline entry, so the BENCH_spice.json
   history surfaces more than the gate. *)
let print_trajectory ~baseline ~kernels ~t1 ~tn =
  print_endline "\ntiming trajectory vs last entry at this jobs/cores setting:";
  Printf.printf "  %-42s %14s %14s %7s\n" "probe" "baseline" "current" "ratio";
  let row name old_v new_v =
    Printf.printf "  %-42s %14.1f %14.1f %6.2fx\n" name old_v new_v
      (if old_v > 0.0 then new_v /. old_v else 0.0)
  in
  let old_kernels = entry_kernels baseline in
  List.iter
    (fun (name, ns) ->
      match List.assoc_opt name old_kernels with
      | Some old_ns -> row (name ^ " (ns)") old_ns ns
      | None -> Printf.printf "  %-42s %14s %14.1f\n" (name ^ " (ns)") "-" ns)
    kernels;
  match entry_campaign baseline with
  | Some (o1, on) ->
      row "campaign probe jobs=1 (s)" o1 t1;
      row "campaign probe jobs=N (s)" on tn
  | None -> print_endline "  (no campaign timing recorded in the baseline entry)"

(* best-of-N over full bechamel passes: the per-pass OLS estimate is
   tight, but on a shared host the whole pass can be slowed by
   unrelated load, which would trip the 25% regression gate on noise.
   The minimum across passes is the usual robust choice — a kernel
   cannot run faster than the code allows, only slower. *)
let kernel_estimates_best ~passes =
  let min_merge best pass =
    List.map
      (fun (name, est) ->
        match List.assoc_opt name best with
        | Some prev -> (name, Float.min prev est)
        | None -> (name, est))
      pass
  in
  let rec go best k = if k = 0 then best else go (min_merge best (kernel_estimates ())) (k - 1) in
  go (kernel_estimates ()) (passes - 1)

let run ?json ?(check = false) () =
  Util.section "perf" "Bechamel micro-benchmarks of the simulation kernels";
  (* first, on a near-empty heap, as [telemetry_overhead] takes it *)
  let ((ref_ratio, ref_chain_ns, ref_dense_ns) as chain_reference) = chain_reference () in
  let kernels = kernel_estimates_best ~passes:3 in
  let nunk, stats, words_per_iter = solver_reuse () in
  List.iter
    (fun (name, est) ->
      Printf.printf "  %-42s %12.1f ns/run%s\n" name est
        (if name = chain_transient_name then
           Printf.sprintf "  %.1f minor words/Newton iteration" words_per_iter
         else ""))
    kernels;
  Printf.printf "\nsolver reuse over a chain transient (%d unknowns):\n" nunk;
  Printf.printf "  symbolic factorizations   %6d\n" stats.E.symbolic_factorizations;
  Printf.printf "  numeric refactorizations  %6d\n" stats.E.numeric_refactorizations;
  Printf.printf "  newton iterations         %6d\n" stats.E.newton_iters;
  Printf.printf "  device loads              %6d\n" stats.E.device_loads;
  Printf.printf "  bypassed loads            %6d  (%.0f%%)\n" stats.E.bypassed_loads
    (if stats.E.device_loads > 0 then
       100.0 *. float_of_int stats.E.bypassed_loads /. float_of_int stats.E.device_loads
     else 0.0);
  Util.verdict
    (stats.E.numeric_refactorizations > 10 * max 1 stats.E.symbolic_factorizations)
    "symbolic analysis is amortised across Newton iterations";
  Printf.printf
    "\nchain transient against the dense-LU reference (interleaved, 200 rounds):\n\
    \  median ratio %.1f  (minima %.2f ms / %.2f us)\n"
    ref_ratio (ref_chain_ns /. 1e6) (ref_dense_ns /. 1e3);
  let ord = ordering_probe () in
  Printf.printf "\nfill-reducing ordering on the compiled c432 surrogate (%d unknowns, nnz(A) %d):\n"
    ord.o_unknowns ord.o_nnz_a;
  Printf.printf "  %-10s %12s %16s\n" "ordering" "nnz(L+U)" "factor+solve";
  Printf.printf "  %-10s %12d %13.1f ms\n" "natural" ord.o_nnz_natural ord.o_natural_ms;
  Printf.printf "  %-10s %12d %13.1f ms\n" "amd" ord.o_nnz_amd ord.o_amd_ms;
  let reduction = ordering_reduction ord in
  let ordering_speedup =
    if ord.o_amd_ms > 0.0 then ord.o_natural_ms /. ord.o_amd_ms else 0.0
  in
  let ordering_ok = reduction >= 0.30 in
  Util.verdict ordering_ok
    (Printf.sprintf "amd cuts nnz(L+U) by %.1f%% (gate: >= 30%%), factor+solve %.1fx faster"
       (100.0 *. reduction) ordering_speedup);
  let jobs = Cml_runtime.Pool.default_jobs () in
  let cores = Domain.recommended_domain_count () in
  let defects = campaign_defects () in
  Printf.printf "\ncampaign scaling (%d defects, jobs = 1 vs %d, %d cores):\n%!"
    (List.length defects) jobs cores;
  (* interleaved best-of-two wall clocks: background load on a shared
     host drifts over seconds, and alternating the two settings keeps
     that drift from being misread as a scaling difference *)
  let t1a, s1 = time_campaign ~jobs:1 defects in
  let tna, sn = time_campaign ~jobs defects in
  let t1b, _ = time_campaign ~jobs:1 defects in
  let tnb, _ = time_campaign ~jobs defects in
  let t1 = Float.min t1a t1b and tn = Float.min tna tnb in
  let speedup = if tn > 0.0 then t1 /. tn else 0.0 in
  (* per-core efficiency: speedup per domain actually running the
     batches — at jobs > cores the pool never runs more than [cores] *)
  let efficiency = speedup /. float_of_int (max 1 (min jobs cores)) in
  Printf.printf "  %-10s %10s %9s %10s\n" "setting" "wall (s)" "speedup" "eff/core";
  Printf.printf "  jobs = 1   %10.2f %8.2fx %9.0f%%\n" t1 1.0 100.0;
  Printf.printf "  jobs = %-3d %10.2f %8.2fx %9.0f%%\n" jobs tn speedup (100.0 *. efficiency);
  let summaries_match = s1 = sn in
  Util.verdict summaries_match "parallel summary is byte-identical to sequential";
  if cores = 1 then
    print_endline
      "  single-core host: parallel-speedup gate skipped (jobs = N cannot beat jobs = 1)"
  else
    Util.verdict (speedup >= 1.0)
      (Printf.sprintf "campaign scales: jobs = %d is no slower than jobs = 1" jobs);
  match json with
  | None -> ()
  | Some path ->
      let history = load_history path in
      let entry =
        entry_json ~jobs ~cores ~kernels ~nunk ~stats ~ordering:ord ~chain_reference
          ~campaign:(t1, tn, List.length defects, summaries_match)
      in
      write_history path (history @ [ entry ]);
      Printf.printf "wrote %s (%d history entries)\n" path (List.length history + 1);
      let baseline = last_matching ~jobs ~cores history in
      (match baseline with
      | None ->
          Printf.printf
            "  no history entry at jobs=%d cores=%d: trajectory starts next run\n" jobs cores
      | Some baseline -> print_trajectory ~baseline ~kernels ~t1 ~tn);
      if check then begin
        match baseline with
        | None ->
            Printf.printf "perf check: no baseline entry at jobs=%d cores=%d, gate skipped\n"
              jobs cores
        | Some baseline ->
            let regs = regressions ~baseline ~kernels in
            let camp_regs = campaign_regressions ~baseline ~t1 ~tn in
            List.iter
              (fun (name, old_ns, ns) ->
                Printf.printf "  REGRESSION %-42s %.1f -> %.1f ns/run (%.2fx)\n" name old_ns
                  ns (ns /. old_ns))
              regs;
            List.iter
              (fun (name, old_s, s) ->
                Printf.printf "  REGRESSION %-42s %.2f -> %.2f s (%.2fx)\n" name old_s s
                  (s /. old_s))
              camp_regs;
            let kernels_ok = regs = [] and campaign_ok = camp_regs = [] in
            Util.verdict kernels_ok
              (Printf.sprintf
                 "no kernel regressed more than %.0f%% vs the last entry at jobs=%d \
                  cores=%d (%.0f%% for the batched-campaign kernel)"
                 ((Trend.regression_limit -. 1.0) *. 100.0)
                 jobs cores
                 ((Trend.kernel_limit "batched campaign" -. 1.0) *. 100.0));
            if entry_campaign baseline <> None then
              Util.verdict campaign_ok
                (Printf.sprintf
                   "campaign probe within %.0f%% of the last entry at jobs=%d cores=%d"
                   ((Trend.campaign_limit -. 1.0) *. 100.0)
                   jobs cores)
            else print_endline "  campaign probe: no timing in the baseline entry, gate skipped"
      end

(* ------------------------------------------------------------------ *)
(* Telemetry overhead gate.

   The claim to verify: with telemetry disabled, the three hooks on
   the solver hot path — the trace-token pair, the observer dispatch
   and the introspection note — each cost one load and a branch, so
   together they keep the chain transient within 3% of the
   pre-telemetry baseline.

   Comparing a fresh wall clock against a number recorded in an
   earlier session cannot carry a 3% gate: the recorded history shows
   run-to-run host drift above 10% on this workload (see the
   interleaving comment in [run]).  So the gate is computed, not
   compared: measure each disabled hook directly (deterministic — no
   I/O, no allocation), multiply by the number of times a chain
   transient executes it, and assert that the sum of the three
   products is under 3% of the recorded baseline transient time.

   The transient's own wall clock is gated as a ratio that carries its
   own host reading ([chain_reference]): the chain transient over the
   dense-LU reference, timed interleaved in this process, must stay
   within [Trend.regression_limit] of the same ratio in the last
   history entry that records one.  A host that runs everything slower
   moves both kernels alike; a slower transient moves only the
   numerator. *)

let overhead_limit = 0.03

(* minimum over 5 passes of the per-call ns cost of [hook i], called
   for i = 1 .. 2_000_000 *)
let min_ns_per_call hook =
  let n = 2_000_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Cml_telemetry.Clock.now_ns () in
    for i = 1 to n do
      hook i
    done;
    let per =
      Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) /. float_of_int n
    in
    if per < !best then best := per
  done;
  !best

(* disabled [Trace.start]/[Trace.finish] pair *)
let disabled_pair_ns () =
  assert (not (Cml_telemetry.Trace.enabled ()));
  min_ns_per_call (fun _ ->
      let tok = Cml_telemetry.Trace.start () in
      Cml_telemetry.Trace.finish ~cat:"bench" "overhead_probe" tok)

(* disabled observer dispatch ([T.observe None]) — the per-accepted-
   step price a run with no [?observers] pays.  The option is
   laundered through [Sys.opaque_identity] so the match cannot be
   constant-folded away. *)
let disabled_observe_ns () =
  let x = Array.make 32 0.0 in
  let obs = Sys.opaque_identity (None : T.observers option) in
  min_ns_per_call (fun i -> T.observe obs (float_of_int i) x)

(* disabled introspection hook ([Introspect.note_newton] with no
   recorder attached) — the per-Newton-iteration price every solve
   pays; laundered like the observer option *)
let disabled_introspect_ns () =
  let x = Array.make 32 0.0 and xn = Array.make 32 0.0 in
  let rec_opt = Sys.opaque_identity (None : Cml_spice.Introspect.t option) in
  min_ns_per_call (fun i ->
      Cml_spice.Introspect.note_newton rec_opt ~time:(float_of_int i) ~iter:i ~x ~xn
        ~junction_error:0.0 ~junction_worst:(-1))

(* one chain transient's Newton iteration count (an upper bound on
   the number of newton_solve spans: every call runs at least one
   iteration) and accepted-step count (the number of disabled observer
   dispatches) *)
let chain_transient_counts () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:2e-9 ~max_step:10e-12 ()) in
  ((E.solver_stats sim).E.newton_iters, r.T.stats.T.accepted_steps)

let telemetry_overhead ?json () =
  Util.section "telemetry-overhead" "Disabled cost of the telemetry hot-path hooks";
  (* first, on a near-empty heap, as [run] records it *)
  let ratio, run_ns, ref_ns = chain_reference () in
  let history = match json with None -> [] | Some path -> List.rev (load_history path) in
  let baseline_ns =
    match history with
    | [] -> None
    | last :: _ -> List.assoc_opt chain_transient_name (entry_kernels last)
  in
  let iters, accepted = chain_transient_counts () in
  (* (label, ns per disabled call, calls per transient, what is counted):
     - trace pair: one newton_solve pair per Newton call (over-counted
       by iterations), the transient span, and the handful of dc /
       sweep / metrics-publish sites;
     - observer dispatch: one per accepted step plus the initial point;
     - introspection: one note_newton per Newton iteration dominates;
       note_dt / note_lte are one per step *)
  let hooks =
    [
      ("trace start/finish pair", disabled_pair_ns (), iters + 16, "hooks");
      ("observer dispatch", disabled_observe_ns (), accepted + 1, "accepted steps");
      ("introspection hook", disabled_introspect_ns (), iters + accepted + 1, "hook sites");
    ]
  in
  Printf.printf "  chain transient (min of 200)    %10.2f ms  (%d newton iterations)\n"
    (run_ns /. 1e6) iters;
  let denom, denom_what =
    match baseline_ns with
    | Some b ->
        Printf.printf "  recorded baseline transient     %10.2f ms  (current/baseline %.2fx)\n"
          (b /. 1e6) (run_ns /. b);
        (b, "recorded baseline")
    | None ->
        print_endline "  (no recorded baseline entry; gating against the current run)";
        (run_ns, "current run")
  in
  let total =
    List.fold_left
      (fun acc (label, ns, calls, what) ->
        let share = ns *. float_of_int calls /. denom in
        Printf.printf "  %-24s %7.2f ns x %6d %-14s = %8.4f %%\n" label ns calls what
          (share *. 100.0);
        acc +. share)
      0.0 hooks
  in
  Printf.printf "  sum of the hook shares   %45.4f %%\n" (total *. 100.0);
  Util.verdict (total < overhead_limit)
    (Printf.sprintf "disabled telemetry hooks together cost < %.0f%% of the %s chain transient"
       (overhead_limit *. 100.0) denom_what);
  Printf.printf "  dense LU reference (min of 200) %10.2f us\n" (ref_ns /. 1e3);
  match List.find_map entry_chain_reference history with
  | None -> print_endline "  (no recorded chain/reference reading: wall-clock gate skipped)"
  | Some recorded ->
      Printf.printf "  chain transient / reference     %10.1f     (median; recorded %.1f, %.2fx)\n"
        ratio recorded (ratio /. recorded);
      Util.verdict
        (ratio <= Trend.regression_limit *. recorded)
        (Printf.sprintf
           "chain transient within %.2fx of the recorded entry, relative to the dense-LU \
            reference timed alongside"
           Trend.regression_limit)
