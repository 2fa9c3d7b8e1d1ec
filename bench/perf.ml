(* Bechamel micro-benchmarks of the simulator kernels (sparse/dense
   LU, the numeric-only refactorization, Newton DC, one transient of
   the paper's 8-buffer chain, waveform measurements) plus two
   system-level probes of the execution runtime:

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

(* One Monte-Carlo sample pair on the paper's N = 45 sharing block, as
   [Montecarlo.run] does it after the nominal solves: perturb, compile,
   adopt the nominal sim's symbolic LU analysis and warm-start the DC
   solve, for the fault-free and the faulty netlist.  The nominal sims
   are built once; the perturbation seed is fixed so every run does
   the same work. *)
let mc_nominals =
  lazy
    (let built = Cml_dft.Sharing.build ~multi_emitter:true ~n:45 () in
     let golden = built.Cml_dft.Sharing.builder.Cml_cells.Builder.net in
     let faulty =
       Cml_defects.Inject.apply golden (Cml_defects.Defect.Pipe { device = "x23.q3"; r = 4e3 })
     in
     let nominal net =
       let sim = E.compile net in
       (net, sim, E.dc_operating_point sim)
     in
     [ nominal golden; nominal faulty ])

let mc_sample_pair nominals =
  List.iter
    (fun (net, donor, x0) ->
      let sim = E.compile (Cml_defects.Variation.perturb ~seed:1 net) in
      E.share_symbolic ~donor sim;
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
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let chain_net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let mc = Lazy.force mc_nominals in
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
    Test.make ~name:"c432 DC operating point" (Staged.stage (fun () ->
        ignore (E.dc_operating_point (E.compile c432_net))));
    Test.make ~name:"chain DC operating point" (Staged.stage (fun () ->
        let sim = E.compile chain_net in
        ignore (E.dc_operating_point sim)));
    Test.make ~name:"chain transient (2 ns)" (Staged.stage (fun () ->
        let sim = E.compile chain_net in
        ignore (T.run sim chain_net (T.config ~tstop:2e-9 ~max_step:10e-12 ()))));
    Test.make ~name:"batched campaign transient (8 lanes)" (Staged.stage (fun () ->
        (* the campaign hot loop in miniature: eight variants of the
           chain advancing in lockstep through one batch workspace *)
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

(* one transient of the 8-buffer chain on the sparse backend (forced:
   at 32 unknowns Auto would pick dense); the engine should do its
   symbolic analysis once and refactorize everywhere else *)
let solver_reuse () =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile ~options:{ E.default_options with E.solver = E.Sparse_solver } net in
  ignore (T.run sim net (T.config ~tstop:2e-9 ~max_step:10e-12 ()));
  (E.unknown_count sim, E.solver_stats sim)

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

let entry_json ~jobs ~cores ~kernels ~nunk ~(stats : E.solver_stats) ~ordering ~campaign =
  let t1, tn, ndefects, summaries_match = campaign in
  J.Obj
    [
      ("jobs", J.Num (float_of_int jobs));
      ("cores", J.Num (float_of_int cores));
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

let regression_limit = 1.25

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* The batched-campaign kernel is a whole 8-lane workload (eight
   compiles, eight DC solves, a shared macro grid) rather than a tight
   inner loop, so its run-to-run spread is closer to the campaign
   probe's than to the other kernels'; gate it at the campaign limit. *)
let kernel_limit name =
  if contains_sub name "batched campaign" then 1.5 else regression_limit

(* kernels of the new run that got slower than their per-kernel limit
   allows vs the last committed history entry: [(name, old_ns, new_ns)] *)
let regressions ~baseline ~kernels =
  let old_kernels = entry_kernels baseline in
  List.filter_map
    (fun (name, ns) ->
      match List.assoc_opt name old_kernels with
      | Some old_ns when old_ns > 0.0 && ns > kernel_limit name *. old_ns ->
          Some (name, old_ns, ns)
      | Some _ | None -> None)
    kernels

(* The campaign probe is a whole parallel workload, not a single
   kernel, so its wall clock carries scheduler and load noise the
   best-of-N bechamel estimates do not; gate it more loosely. *)
let campaign_limit = 1.5

let entry_campaign entry =
  match J.member "campaign" entry with
  | Some c -> (
      match (J.member "jobs1_s" c, J.member "jobsN_s" c) with
      | Some (J.Num t1), Some (J.Num tn) -> Some (t1, tn)
      | _ -> None)
  | _ -> None

(* The campaign probe's jobs=N wall clock depends on the worker count
   and the host, so its baseline must be the last history entry
   recorded at the same jobs AND cores — comparing a jobs=4 run
   against a jobs=1 entry (or a 16-core entry against a 1-core one)
   would flag a phantom regression or mask a real one.  Kernels are
   single-threaded and keep comparing against the last entry
   regardless of setting. *)
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
          if old_s > 0.0 && new_s > campaign_limit *. old_s then Some (label, old_s, new_s)
          else None)
        [ ("campaign probe jobs=1 (s)", o1, t1); ("campaign probe jobs=N (s)", on, tn) ]

(* [cmldft report]-style trajectory table: every kernel against the
   last committed history entry, the campaign probe against the last
   entry at the same jobs/cores setting, so the BENCH_spice.json
   history surfaces more than the kernel gate. *)
let print_trajectory ~baseline ~campaign_baseline ~kernels ~t1 ~tn =
  print_endline "\ntiming trajectory vs last recorded entry:";
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
  match Option.bind campaign_baseline entry_campaign with
  | Some (o1, on) ->
      row "campaign probe jobs=1 (s)" o1 t1;
      row "campaign probe jobs=N (s)" on tn
  | None -> print_endline "  (no campaign timing recorded at this jobs/cores setting)"

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
  let kernels = kernel_estimates_best ~passes:3 in
  List.iter (fun (name, est) -> Printf.printf "  %-42s %12.1f ns/run\n" name est) kernels;
  let nunk, stats = solver_reuse () in
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
  let failed_check =
    match json with
    | None -> false
    | Some path ->
        let history = load_history path in
        let entry =
          entry_json ~jobs ~cores ~kernels ~nunk ~stats ~ordering:ord
            ~campaign:(t1, tn, List.length defects, summaries_match)
        in
        write_history path (history @ [ entry ]);
        Printf.printf "wrote %s (%d history entries)\n" path (List.length history + 1);
        let campaign_baseline = last_matching ~jobs ~cores history in
        (match List.rev history with
        | [] ->
            print_endline
              "  no history yet: this run is the first entry, trajectory starts next run"
        | baseline :: _ -> print_trajectory ~baseline ~campaign_baseline ~kernels ~t1 ~tn);
        if not check then false
        else begin
          match List.rev history with
          | [] ->
              print_endline "perf check: no baseline entry, nothing to compare against";
              false
          | baseline :: _ ->
              let regs = regressions ~baseline ~kernels in
              let camp_regs =
                match campaign_baseline with
                | None -> []
                | Some b -> campaign_regressions ~baseline:b ~t1 ~tn
              in
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
                   "no kernel regressed more than %.0f%% vs last entry (%.0f%% for the \
                    batched-campaign kernel)"
                   ((regression_limit -. 1.0) *. 100.0)
                   ((kernel_limit "batched campaign" -. 1.0) *. 100.0));
              (match campaign_baseline with
              | Some _ ->
                  Util.verdict campaign_ok
                    (Printf.sprintf
                       "campaign probe within %.0f%% of the last entry at jobs=%d cores=%d"
                       ((campaign_limit -. 1.0) *. 100.0)
                       jobs cores)
              | None ->
                  Printf.printf
                    "  campaign probe: no history entry at jobs=%d cores=%d, gate skipped\n"
                    jobs cores);
              not (kernels_ok && campaign_ok)
        end
  in
  if failed_check || (check && not ordering_ok) then exit 1

(* ------------------------------------------------------------------ *)
(* Telemetry overhead gate.

   The claim to verify: with tracing disabled, the span hooks on the
   Newton hot path cost one atomic load and a branch — i.e. the chain
   transient stays within 3% of the pre-telemetry baseline.

   Comparing a fresh wall clock against a number recorded in an
   earlier session cannot carry a 3% gate: the recorded history shows
   run-to-run host drift above 10% on this workload (see the
   interleaving comment in [run]).  So the gate is computed, not
   compared: measure the disabled start/finish pair directly (it is
   deterministic — no I/O, no allocation), multiply by the number of
   hook executions a chain transient performs, and assert that the
   product is under 3% of the recorded baseline transient time.  The
   current transient wall clock is printed alongside for context but
   only gated at the regular [regression_limit]. *)

let chain_transient_name = "kernels chain transient (2 ns)"

let overhead_limit = 0.03

(* minimum ns cost of a disabled [Trace.start]/[Trace.finish] pair *)
let disabled_pair_ns () =
  assert (not (Cml_telemetry.Trace.enabled ()));
  let n = 2_000_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Cml_telemetry.Clock.now_ns () in
    for _ = 1 to n do
      let tok = Cml_telemetry.Trace.start () in
      Cml_telemetry.Trace.finish ~cat:"bench" "overhead_probe" tok
    done;
    let per =
      Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) /. float_of_int n
    in
    if per < !best then best := per
  done;
  !best

(* min ns cost of the disabled observer dispatch ([T.observe None]) —
   the per-accepted-step price a run with no [?observers] pays.  The
   option is laundered through [Sys.opaque_identity] so the match
   cannot be constant-folded away. *)
let disabled_observe_ns () =
  let n = 2_000_000 in
  let x = Array.make 32 0.0 in
  let obs = Sys.opaque_identity (None : T.observers option) in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Cml_telemetry.Clock.now_ns () in
    for i = 1 to n do
      T.observe obs (float_of_int i) x
    done;
    let per =
      Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) /. float_of_int n
    in
    if per < !best then best := per
  done;
  !best

(* min ns cost of the disabled per-accepted-step progress hook
   ([Progress.note_step]) — the price every transient pays once the
   step loop carries the live-observatory hook, whether or not an
   event stream is attached *)
let disabled_progress_ns () =
  assert (not (Cml_telemetry.Progress.enabled ()));
  let n = 2_000_000 in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Cml_telemetry.Clock.now_ns () in
    for _ = 1 to n do
      Cml_telemetry.Progress.note_step ()
    done;
    let per =
      Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) /. float_of_int n
    in
    if per < !best then best := per
  done;
  !best

(* min ns cost of the disabled introspection hook
   ([Introspect.note_newton] with no recorder attached) — the
   per-Newton-iteration price every solve pays now that the iteration
   loop carries the numerical-health observatory hook.  The [None] is
   laundered through [Sys.opaque_identity] so the match cannot be
   constant-folded away. *)
let disabled_introspect_ns () =
  let n = 2_000_000 in
  let x = Array.make 32 0.0 and xn = Array.make 32 0.0 in
  let rec_opt = Sys.opaque_identity (None : Cml_spice.Introspect.t option) in
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Cml_telemetry.Clock.now_ns () in
    for i = 1 to n do
      Cml_spice.Introspect.note_newton rec_opt ~time:(float_of_int i) ~iter:i ~x ~xn
        ~junction_error:0.0 ~junction_worst:(-1)
    done;
    let per =
      Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) /. float_of_int n
    in
    if per < !best then best := per
  done;
  !best

(* min-of-[passes] wall clock of the standard chain transient, plus
   its Newton iteration count (an upper bound on the number of
   newton_solve spans: every call runs at least one iteration) and its
   accepted-step count (the number of disabled observer dispatches) *)
let chain_transient_min ~passes =
  let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 () in
  ignore (T.run (E.compile net) net cfg);
  let best = ref infinity and iters = ref 0 and accepted = ref 0 in
  for _ = 1 to passes do
    let sim = E.compile net in
    let t0 = Cml_telemetry.Clock.now_ns () in
    let r = T.run sim net cfg in
    let dt = Int64.to_float (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) in
    if dt < !best then begin
      best := dt;
      iters := (E.solver_stats sim).E.newton_iters;
      accepted := r.T.stats.T.accepted_steps
    end
  done;
  (!best, !iters, !accepted)

let telemetry_overhead ?json () =
  Util.section "telemetry-overhead" "Disabled-tracing cost of the telemetry span hooks";
  let baseline_ns =
    match json with
    | None -> None
    | Some path -> (
        match List.rev (load_history path) with
        | [] -> None
        | last :: _ -> List.assoc_opt chain_transient_name (entry_kernels last))
  in
  let pair = disabled_pair_ns () in
  let observe = disabled_observe_ns () in
  let progress = disabled_progress_ns () in
  let introspect = disabled_introspect_ns () in
  let run_ns, iters, accepted = chain_transient_min ~passes:10 in
  (* hook executions per transient: one newton_solve pair per Newton
     call (over-counted by iterations), the transient span, and the
     handful of dc / sweep / metrics-publish sites *)
  let hooks = iters + 16 in
  let hook_ns = pair *. float_of_int hooks in
  (* observer dispatches per transient: one per accepted step plus the
     initial point *)
  let observes = accepted + 1 in
  let observe_ns = observe *. float_of_int observes in
  (* progress hooks per transient: one note_step per accepted step *)
  let progress_ns = progress *. float_of_int (accepted + 1) in
  (* introspection hooks per transient: one note_newton per Newton
     iteration dominates; note_dt / note_lte are one per step, already
     covered by the iteration count *)
  let introspect_ns = introspect *. float_of_int (iters + accepted + 1) in
  Printf.printf "  disabled start/finish pair      %10.2f ns\n" pair;
  Printf.printf "  disabled observer dispatch      %10.2f ns\n" observe;
  Printf.printf "  disabled progress hook          %10.2f ns\n" progress;
  Printf.printf "  disabled introspection hook     %10.2f ns\n" introspect;
  Printf.printf "  chain transient (min of 10)     %10.2f ms  (%d newton iterations)\n"
    (run_ns /. 1e6) iters;
  Printf.printf "  worst-case hook time            %10.2f us  (%d hooks)\n" (hook_ns /. 1e3)
    hooks;
  Printf.printf "  worst-case observer time        %10.2f us  (%d accepted steps)\n"
    (observe_ns /. 1e3) observes;
  Printf.printf "  worst-case progress time        %10.2f us  (%d accepted steps)\n"
    (progress_ns /. 1e3) (accepted + 1);
  Printf.printf "  worst-case introspection time   %10.2f us  (%d hook sites)\n"
    (introspect_ns /. 1e3)
    (iters + accepted + 1);
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
  let frac = hook_ns /. denom in
  Printf.printf "  hook share of the transient     %10.4f %%\n" (frac *. 100.0);
  let ok = frac < overhead_limit in
  Util.verdict ok
    (Printf.sprintf "disabled tracing costs < %.0f%% of the %s chain transient"
       (overhead_limit *. 100.0) denom_what);
  let obs_frac = observe_ns /. denom in
  Printf.printf "  observer share of the transient %10.4f %%\n" (obs_frac *. 100.0);
  let obs_ok = obs_frac < overhead_limit in
  Util.verdict obs_ok
    (Printf.sprintf "disabled observers cost < %.0f%% of the %s chain transient"
       (overhead_limit *. 100.0) denom_what);
  let prog_frac = progress_ns /. denom in
  Printf.printf "  progress share of the transient %10.4f %%\n" (prog_frac *. 100.0);
  let prog_ok = prog_frac < overhead_limit in
  Util.verdict prog_ok
    (Printf.sprintf "disabled progress hooks cost < %.0f%% of the %s chain transient"
       (overhead_limit *. 100.0) denom_what);
  let intro_frac = introspect_ns /. denom in
  Printf.printf "  introspect share of transient   %10.4f %%\n" (intro_frac *. 100.0);
  let intro_ok = intro_frac < overhead_limit in
  Util.verdict intro_ok
    (Printf.sprintf "disabled introspection hooks cost < %.0f%% of the %s chain transient"
       (overhead_limit *. 100.0) denom_what);
  let drifted =
    match baseline_ns with Some b -> run_ns > regression_limit *. b | None -> false
  in
  if drifted then
    Util.verdict false
      (Printf.sprintf "chain transient slower than %.2fx the recorded baseline"
         regression_limit);
  if (not ok) || (not obs_ok) || (not prog_ok) || (not intro_ok) || drifted then exit 1
