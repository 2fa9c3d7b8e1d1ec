(* One workload in one process: set-up, an untimed warm-up rep (rep 0),
   then either the timed run -- a closed loop of reps 1, 2, ... until
   the run's seconds are spent, tracing off -- or the traced run on rep
   0's inputs.  Correctness checks run outside the timed reps.  The last
   line printed is the result object the benchmark contract asks for. *)

module W = Workloads
module E = Cml_spice.Engine
module J = Cml_telemetry.Json

(* Metric names and units, as declared in BENCHMARK.json. *)
let end_to_end = [ ("items_per_s", "1/s"); ("run_s_p50", "s"); ("setup_s", "s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("cells.build_share", "ratio");
    ("analysis.preflight_share", "ratio");
    ("defects.inject_share", "ratio");
    ("defects.perturb_share", "ratio");
    ("engine.compile_share", "ratio");
    ("engine.dc_share", "ratio");
    ("engine.dc_newton_iters", "count");
    ("engine.device_loads", "count");
    ("engine.bypass_ratio", "ratio");
    ("transient.run_share", "ratio");
    ("transient.accepted_steps", "count");
    ("transient.accept_ratio", "ratio");
    ("transient.lte_rejections", "count");
    ("transient.newton_per_step", "iter/step");
    ("transient.cold_fallbacks", "count");
    ("wave.analysis_share", "ratio");
    ("lu.symbolic", "count");
    ("lu.refactorizations", "count");
    ("lu.reused", "count");
    ("lu.skipped_solves", "count");
    ("lu.fallbacks", "count");
    ("lu.fill_ratio", "ratio");
    ("lu.factorize_us", "us");
    ("lu.refactorize_us", "us");
    ("lu.solve_us", "us");
    ("lu.share", "ratio");
    ("pool.busy_ratio", "ratio");
    ("pool.stall_share", "ratio");
    ("pool.tasks", "count");
    ("pool.speedup", "ratio");
    ("trace.coverage", "ratio");
    ("trace.overhead_ratio", "ratio");
    ("trace.layer_pass_ms", "ms");
  ]

let default_seconds = 15.0

type config = {
  workload : W.name;
  size : W.size;
  seed : int;
  seconds : float;
  out : string;  (** directory for the results and trace files *)
}

type check = { name : string; ok : bool; detail : string }

let now_s = Timed.now_s

let peak_rss_mb () =
  let vm_hwm line = Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0) in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | status -> (
      match List.find_map vm_hwm (String.split_on_char '\n' status) with
      | Some mb -> mb
      | None -> failwith "no VmHWM line in /proc/self/status")
  | exception Sys_error _ ->
      (* no procfs: the major heap's peak is the closest stand-in *)
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let sumf f xs = List.fold_left (fun a x -> a +. f x) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let class_count name (r : Timed.rep) = Option.value ~default:0 (List.assoc_opt name r.Timed.classes)

let rec take k = function x :: rest when k > 0 -> x :: take (k - 1) rest | _ -> []

(* The designs the inputs are generated against, built before any rep. *)
let prepare cfg =
  match cfg.workload with
  | W.C432_campaign | W.C432_op -> ignore (Lazy.force W.c432)
  | W.Chain_campaign -> ignore (Lazy.force W.chain_netlist)
  | W.Mc_sharing -> ()

(* Checks on the warm-up rep and every rep after it. *)
let workload_checks cfg (reps : Timed.rep list) =
  let total name = sum (class_count name) reps in
  match cfg.workload with
  | W.Chain_campaign ->
      let healed = total "healed" and excursion = total "excursion-not-stuck" in
      [
        {
          name = "healing";
          ok = healed > 0 && excursion > 0;
          detail =
            Printf.sprintf "%d healed, %d excursion-not-stuck over %d reps (paper section 5)" healed
              excursion (List.length reps);
        };
      ]
  | W.Mc_sharing ->
      let fa = total "false-alarm" in
      [
        {
          name = "no-false-alarm";
          ok = fa = 0;
          detail = Printf.sprintf "%d false alarms, %d missed over %d samples" fa (total "missed")
              (sum (fun r -> r.Timed.items) reps);
        };
      ]
  | W.C432_campaign | W.C432_op -> []

(* Rep 0's first defects re-run unbatched at jobs = 1 must classify
   exactly as the batched run did. *)
let parity_check cfg ~rep0_inputs (rep0 : Timed.rep) =
  match W.parity_defects cfg.size cfg.workload with
  | 0 -> []
  | k ->
      let defects = take k (W.defects rep0_inputs) in
      let c = Timed.campaign cfg.size ~batch:false ~jobs:1 ~defects rep0_inputs in
      let sequential = List.map Timed.entry_labels c.Cml_defects.Campaign.entries in
      [
        {
          name = "batch-parity";
          ok = sequential = take k rep0.Timed.labels;
          detail =
            Printf.sprintf "first %d defects of rep 0: batched jobs=%d vs unbatched jobs=1" k W.jobs;
        };
      ]

(* The operating point must be a fixed point of a warm DC solve,
   within ten times the tolerance Newton accepts a step at (vntol +
   reltol |v| per node).  The point is only known to about that
   tolerance -- a warm solve moved a homotopy point by up to 1.4 of it
   over 520 seeded points -- while landing on another solution moves
   nodes by a logic swing.  Returns the largest deviation in volts and
   in tolerances. *)
let dc_from_error (sim, x) =
  let x' = E.dc_from sim x in
  let o = E.options sim in
  let volts = ref 0.0 and tols = ref 0.0 in
  for i = 0 to E.node_unknowns sim - 1 do
    let d = Float.abs (x'.(i) -. x.(i)) in
    let tol = o.E.vntol +. (o.E.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i))) in
    volts := Float.max !volts d;
    tols := Float.max !tols (d /. tol)
  done;
  (!volts, !tols)

(* ------------------------------------------------------------------ *)
(* Output *)

let metric_json (name, unit, value, n) =
  (name, J.Obj [ ("value", J.Num value); ("unit", J.Str unit); ("n", J.Num (float_of_int n)) ])

let rep_json (r, (rep : Timed.rep)) =
  J.Obj
    [
      ("rep", J.Num (float_of_int r));
      ("wall_s", J.Num rep.Timed.wall_s);
      ("item_s", J.Num rep.Timed.item_s);
      ("items", J.Num (float_of_int rep.Timed.items));
      ("failed", J.Num (float_of_int rep.Timed.failed));
      ("classes", J.Obj (List.map (fun (c, n) -> (c, J.Num (float_of_int n))) rep.Timed.classes));
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_json path v =
  mkdir_p (Filename.dirname path);
  J.write_file path v

(* Print the report, write the results file and end with the result
   line; returns whether every check passed. *)
let finish cfg ~trace ~attempted ~failed ~metrics ~checks ~extra ~reps =
  let correct = List.for_all (fun c -> c.ok) checks in
  List.iter
    (fun (name, unit, v, n) -> Printf.printf "  %-26s %14.6g %-9s (n=%d)\n" name v unit n)
    metrics;
  List.iter
    (fun c -> Printf.printf "  check %-18s %s: %s\n" c.name (if c.ok then "ok" else "FAILED") c.detail)
    checks;
  let name = W.to_string cfg.workload in
  write_json
    (Filename.concat cfg.out (name ^ if trace then ".layers.json" else ".json"))
    (J.Obj
       ([
          ("schema", J.Str "cml-dft-benchmark/1");
          ("workload", J.Str name);
          ("seed", J.Num (float_of_int cfg.seed));
          ("seconds", J.Num cfg.seconds);
          ("trace", J.Bool trace);
          ("smoke", J.Bool cfg.size.W.smoke);
          ("correct", J.Bool correct);
          ("attempted", J.Num (float_of_int attempted));
          ("failed", J.Num (float_of_int failed));
          ("metrics", J.Obj (List.map metric_json metrics));
          ( "checks",
            J.List
              (List.map
                 (fun c -> J.Obj [ ("name", J.Str c.name); ("ok", J.Bool c.ok); ("detail", J.Str c.detail) ])
                 checks) );
          ("reps", J.List (List.map rep_json reps));
        ]
       @ extra));
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v, _) ->
            Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" name v unit)
          metrics));
  correct

(* ------------------------------------------------------------------ *)
(* Timed run *)

let timed cfg =
  prepare cfg;
  let inputs rep = W.inputs cfg.size cfg.workload ~seed:cfg.seed ~rep in
  let rep0_inputs = inputs 0 in
  (* The dc-fixed-point check runs on rep 0 and every 10th rep, its
     time kept out of the run's budget; each sim is dropped after its
     check, since a retained one would count in [peak_rss_mb]. *)
  let dc_checks = ref [] and check_s = ref 0.0 in
  let dc_check r (rep : Timed.rep) =
    (match rep.Timed.op with
    | Some op when r mod 10 = 0 ->
        let t0 = now_s () in
        dc_checks := dc_from_error op :: !dc_checks;
        check_s := !check_s +. (now_s () -. t0)
    | Some _ | None -> ());
    { rep with Timed.op = None }
  in
  let rep0 = dc_check 0 (Timed.rep cfg.size rep0_inputs) in
  let parity = parity_check cfg ~rep0_inputs rep0 in
  check_s := 0.0;
  let t_start = now_s () in
  let elapsed () = now_s () -. t_start -. !check_s in
  let rec loop r acc =
    if r > 1 && elapsed () >= cfg.seconds then List.rev acc
    else loop (r + 1) ((r, dc_check r (Timed.rep cfg.size (inputs r))) :: acc)
  in
  let reps = loop 1 [] in
  let loop_s = elapsed () in
  let timed_reps = List.map snd reps in
  let n = List.length timed_reps in
  let attempted = sum (fun r -> r.Timed.items) timed_reps in
  let failed = sum (fun r -> r.Timed.failed) timed_reps in
  let walls = List.map (fun r -> r.Timed.wall_s) timed_reps in
  let setups = List.map (fun r -> r.Timed.wall_s -. r.Timed.item_s) timed_reps in
  let dc_check =
    match !dc_checks with
    | [] -> []
    | errs ->
        let worst f = List.fold_left (fun a e -> Float.max a (f e)) 0.0 errs in
        let tols = worst snd in
        [
          {
            name = "dc-fixed-point";
            ok = tols <= 10.0;
            detail =
              Printf.sprintf
                "dc_from stays within 10 Newton tolerances of the operating point of rep 0 and \
                 every 10th rep: %d reps, worst %.3g V (%.2f tolerances)"
                (List.length errs) (worst fst) tols;
          };
        ]
  in
  let checks = parity @ dc_check @ workload_checks cfg (rep0 :: timed_reps) in
  Printf.printf "%s seed %d: %d timed reps after 1 warm-up rep, %d items (%d failed) in %.1f s\n"
    (W.to_string cfg.workload) cfg.seed n attempted failed loop_s;
  let p90 = Stats.percentile walls ~pct:90 in
  (match p90 with
  | Some v -> Printf.printf "  %-26s %14.6g %-9s (n=%d)\n" "run_s_p90" v "s" n
  | None -> Printf.printf "  %-26s refused: fewer than 10 of %d samples beyond it\n" "run_s_p90" n);
  let values =
    [
      ("items_per_s", (float_of_int (attempted - failed) /. sumf (fun r -> r.Timed.item_s) timed_reps, n));
      ("run_s_p50", (Stats.median walls, n));
      ("setup_s", (Stats.median setups, List.length setups));
      ("peak_rss_mb", (peak_rss_mb (), 1));
    ]
  in
  finish cfg ~trace:false ~attempted ~failed ~checks
    ~metrics:
      (List.map
         (fun (name, unit) ->
           let v, n = List.assoc name values in
           (name, unit, v, n))
         end_to_end)
    ~extra:
      [
        ("run_s_p90", match p90 with Some v -> J.Num v | None -> J.Null);
        ("warmup", rep_json (0, rep0));
      ]
    ~reps

(* ------------------------------------------------------------------ *)
(* Traced run *)

type cycle = {
  untraced : Timed.rep;
  traced : Timed.rep;
  sequential : Timed.rep option;  (** the same rep on one domain (parallel workloads) *)
  rep_spans : Span.t list;  (** the traced timed calls, root first *)
  pass : Layers.pass;
}

(* Per-layer metrics of one cycle: self-time shares of the layer pass,
   the work counted on its sims, the LU replay, and pool utilization of
   the untraced rep (zero where the workload has no parallel phase). *)
let layer_metrics c =
  let p = c.pass in
  let wall = Span.seconds (List.hd p.Layers.spans) in
  let selfs = Span.by_name p.Layers.spans in
  let self name = match List.assoc_opt name selfs with Some (s, _) -> s | None -> 0.0 in
  let stats = List.map (fun (s, _) -> E.solver_stats s) p.Layers.acc.Layers.sims in
  let ssum f = float_of_int (sum f stats) in
  let tran = p.Layers.acc.Layers.tran in
  let tsum f = float_of_int (sum f tran) in
  let module T = Cml_spice.Transient in
  let newton = ssum (fun s -> s.E.newton_iters) and skipped = ssum (fun s -> s.E.skipped_solves) in
  let reused = ssum (fun s -> s.E.reused_factorizations) in
  let symbolic = ssum (fun s -> s.E.symbolic_factorizations) in
  let refactorizations = ssum (fun s -> s.E.numeric_refactorizations) in
  let r = p.Layers.replay in
  (* the dense backend factors afresh on every solve it does not reuse *)
  let factor_calls, refactor_calls =
    if r.Layers.sparse then (symbolic, refactorizations) else (newton -. reused -. skipped, 0.0)
  in
  let lu_s =
    1e-6
    *. ((factor_calls *. r.Layers.factorize_us)
       +. (refactor_calls *. r.Layers.refactorize_us)
       +. ((newton -. skipped) *. r.Layers.solve_us))
  in
  let accepted = tsum (fun s -> s.T.accepted_steps) in
  let util, parallel_s, speedup =
    match c.sequential with
    | Some s ->
        let u = c.untraced in
        (u.Timed.utilization, u.Timed.item_s, s.Timed.item_s /. u.Timed.item_s)
    | None -> ([], 0.0, 0.0)
  in
  let module Ev = Cml_telemetry.Events in
  let root = List.hd c.rep_spans in
  let rep_wall = Span.seconds root in
  let children = sumf Span.seconds (List.filter (fun s -> s.Span.parent = root.Span.id) c.rep_spans) in
  [
    ("cells.build_share", self "cells.build" /. wall);
    ("analysis.preflight_share", self "analysis.preflight" /. wall);
    ("defects.inject_share", self "defects.inject" /. wall);
    ("defects.perturb_share", self "defects.perturb" /. wall);
    ("engine.compile_share", self "engine.compile" /. wall);
    ("engine.dc_share", self "engine.dc" /. wall);
    ("engine.dc_newton_iters", float_of_int p.Layers.acc.Layers.dc_newton);
    ("engine.device_loads", ssum (fun s -> s.E.device_loads));
    ("engine.bypass_ratio", ratio (ssum (fun s -> s.E.bypassed_loads)) (ssum (fun s -> s.E.device_loads)));
    ("transient.run_share", self "transient.run" /. wall);
    ("transient.accepted_steps", accepted);
    ("transient.accept_ratio", ratio accepted (accepted +. tsum (fun s -> s.T.rejected_steps)));
    ("transient.lte_rejections", tsum (fun s -> s.T.lte_rejections));
    ("transient.newton_per_step", ratio (tsum (fun s -> s.T.newton_iters)) accepted);
    ("transient.cold_fallbacks", tsum (fun s -> s.T.cold_fallbacks));
    ("wave.analysis_share", self "wave.analysis" /. wall);
    ("lu.symbolic", symbolic);
    ("lu.refactorizations", refactorizations);
    ("lu.reused", reused);
    ("lu.skipped_solves", skipped);
    ( "lu.fallbacks",
      ssum (fun s -> s.E.fallback_small_pivot + s.E.fallback_unstable_pivot + s.E.fallback_pattern) );
    ("lu.fill_ratio", r.Layers.fill_ratio);
    ("lu.factorize_us", r.Layers.factorize_us);
    ("lu.refactorize_us", r.Layers.refactorize_us);
    ("lu.solve_us", r.Layers.solve_us);
    ("lu.share", ratio lu_s (self "engine.dc" +. self "transient.run"));
    ( "pool.busy_ratio",
      ratio (sumf (fun u -> u.Ev.du_busy_s) util) (float_of_int W.jobs *. parallel_s) );
    ( "pool.stall_share",
      ratio (List.fold_left (fun a u -> Float.max a u.Ev.du_longest_stall_s) 0.0 util) parallel_s );
    ("pool.tasks", float_of_int (sum (fun u -> u.Ev.du_items) util));
    ("pool.speedup", speedup);
    ("trace.coverage", children /. rep_wall);
    ("trace.overhead_ratio", (c.traced.Timed.wall_s /. c.untraced.Timed.wall_s) -. 1.0);
    ("trace.layer_pass_ms", 1e3 *. wall);
  ]

(* What the layer pass concluded against what the timed calls did:
   warnings, since the pass slices lanes differently. *)
let pass_warnings c =
  let p = c.pass in
  let published = sum (fun (s, pub) -> if pub then (E.solver_stats s).E.newton_iters else 0) p.Layers.acc.Layers.sims in
  let expected = c.untraced.Timed.newton_iters in
  let newton =
    if Float.abs (float_of_int (published - expected)) > 0.01 *. float_of_int (max 1 expected) then
      [ Printf.sprintf "layer pass ran %d Newton iterations, the timed rep published %d" published expected ]
    else []
  in
  let outcome =
    match p.Layers.outcome with
    | Layers.Labels l when l <> c.untraced.Timed.labels -> [ "layer pass classified some defect differently" ]
    | Layers.Alarms (fa, missed)
      when fa <> class_count "false-alarm" c.untraced || missed <> class_count "missed" c.untraced ->
        [ "layer pass counted different false alarms or misses" ]
    | Layers.Labels _ | Layers.Alarms _ | Layers.Op -> []
  in
  newton @ outcome

let print_layers spans ~cycles =
  let wall = Span.seconds (List.hd spans) in
  Printf.printf "  layer pass on rep 0: %.1f ms (last of %d cycles)\n" (1e3 *. wall) cycles;
  Printf.printf "    %-20s %10s %7s %6s\n" "layer" "self ms" "share" "spans";
  List.iter
    (fun (name, (self, n)) ->
      Printf.printf "    %-20s %10.2f %7.3f %6d\n" name (1e3 *. self) (self /. wall) n)
    (Span.by_name spans)

(* Cycles of (untraced rep, one-domain rep, traced rep, layer pass) on
   rep 0's inputs until the run's seconds are spent; each cycle is
   reduced to its metrics at once, so no compiled sim outlives it. *)
let traced cfg =
  prepare cfg;
  let inputs = W.inputs cfg.size cfg.workload ~seed:cfg.seed ~rep:0 in
  let warm = Timed.rep cfg.size inputs in
  let t_start = now_s () in
  let last_pass = ref [] in
  let rec loop acc =
    if acc <> [] && now_s () -. t_start >= cfg.seconds then List.rev acc
    else begin
      let untraced = Timed.rep cfg.size inputs in
      let sequential =
        match cfg.workload with
        | W.C432_op -> None
        | W.Chain_campaign | W.C432_campaign | W.Mc_sharing -> Some (Timed.rep ~jobs:1 cfg.size inputs)
      in
      Span.enable ();
      let traced, rep_spans = Span.traced_rep "rep" (fun () -> Timed.rep cfg.size inputs) in
      let pass = Layers.run cfg.size inputs in
      Span.disable ();
      let c = { untraced; traced; sequential; rep_spans; pass } in
      last_pass := pass.Layers.spans;
      let reps = untraced :: traced :: Option.to_list sequential in
      let agree = List.for_all (fun r -> r.Timed.classes = untraced.Timed.classes) reps in
      loop ((reps, layer_metrics c, pass_warnings c, agree) :: acc)
    end
  in
  let cycles = loop [] in
  let n = List.length cycles in
  let metrics =
    List.map
      (fun (name, unit) ->
        (name, unit, Stats.median (List.map (fun (_, m, _, _) -> List.assoc name m) cycles), n))
      per_layer
  in
  let reps = warm :: List.concat_map (fun (r, _, _, _) -> r) cycles in
  let attempted = sum (fun r -> r.Timed.items) reps and failed = sum (fun r -> r.Timed.failed) reps in
  Printf.printf "%s seed %d: traced run on rep 0's inputs, %d cycles in %.1f s\n"
    (W.to_string cfg.workload) cfg.seed n (now_s () -. t_start);
  print_layers !last_pass ~cycles:n;
  List.iter
    (fun w -> Printf.printf "  warning: %s\n" w)
    (List.sort_uniq compare (List.concat_map (fun (_, _, w, _) -> w) cycles));
  let trace_path = Filename.concat cfg.out (W.to_string cfg.workload ^ ".trace.json") in
  mkdir_p cfg.out;
  Span.write_chrome trace_path;
  Printf.printf "  trace written to %s\n" trace_path;
  let checks =
    {
      name = "rep-parity";
      ok = List.for_all (fun (_, _, _, agree) -> agree) cycles;
      detail =
        Printf.sprintf "traced and one-domain reps classify exactly as untraced %d-domain ones" W.jobs;
    }
    :: workload_checks cfg reps
  in
  finish cfg ~trace:true ~attempted ~failed ~metrics ~checks ~extra:[]
    ~reps:(List.mapi (fun i r -> (i, r)) reps)
