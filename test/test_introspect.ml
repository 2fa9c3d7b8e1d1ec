(* Numerical-health observatory: the introspection recorder and the
   post-mortem pipeline.

   - attaching a recorder never changes a bit of the simulated
     waveform, warm-started and cold (qcheck property — the recorder
     only reads solver state);
   - the recorder actually captures Newton / dt rows on a real
     transient, with well-formed cause tags;
   - sparse-LU health numbers and the reason codes for stability
     fallbacks;
   - `explain` is a pure function of its source manifest: two runs
     produce byte-identical post-mortem JSON, and the document
     round-trips through write/read;
   - trend rendering says so explicitly when there is no perf history
     yet. *)

module E = Cml_spice.Engine
module T = Cml_spice.Transient
module I = Cml_spice.Introspect
module SL = Cml_numerics.Sparse_lu
module Sp = Cml_numerics.Sparse
module PM = Cml_telemetry.Postmortem
module Json = Cml_telemetry.Json
module D = Cml_defects.Defect

let build_chain ~stages ~freq =
  let chain = Cml_cells.Chain.build ~stages ~freq () in
  chain.Cml_cells.Chain.builder.Cml_cells.Builder.net

(* ------------------------------------------------------------------ *)
(* qcheck: introspection is observation only *)

let same_result (a : T.result) (b : T.result) =
  a.T.times = b.T.times && a.T.data = b.T.data && a.T.stats = b.T.stats

let prop_introspect_parity =
  QCheck2.Test.make ~name:"introspected transient is bit-identical to plain (warm and cold)"
    ~count:4
    QCheck2.Gen.(pair (int_range 2 4) (float_range 5e8 2e9))
    (fun (stages, freq) ->
      let net = build_chain ~stages ~freq in
      let tstop = 2e-9 in
      let breakpoints = T.collect_breakpoints net ~tstop in
      let cfg = T.config ~tstop ~max_step:10e-12 () in
      let run ?guide ~introspect () =
        let sim = E.compile net in
        if introspect then E.set_introspect sim (Some (I.create ()));
        T.run ?guide ~breakpoints sim net cfg
      in
      let cold_plain = run ~introspect:false () in
      let cold_rec = run ~introspect:true () in
      let guide = cold_plain in
      let warm_plain = run ~guide ~introspect:false () in
      let warm_rec = run ~guide ~introspect:true () in
      same_result cold_plain cold_rec && same_result warm_plain warm_rec)

(* ------------------------------------------------------------------ *)
(* Recorder capture on a real transient *)

let test_recorder_captures () =
  let net = build_chain ~stages:2 ~freq:1e9 in
  let tstop = 2e-9 in
  let sim = E.compile net in
  let r = I.create ~label:"unit" () in
  E.set_introspect sim (Some r);
  let res = T.run ~breakpoints:(T.collect_breakpoints net ~tstop) sim net (T.config ~tstop ()) in
  Alcotest.(check string) "label" "unit" (I.label r);
  Alcotest.(check bool) "newton rows recorded" true (I.newton_rows r <> []);
  let dt = I.dt_rows r in
  Alcotest.(check bool) "dt rows recorded" true (dt <> []);
  (* every accepted step leaves exactly one accept/breakpoint/guide
     row; rejections add their own rows on top *)
  let accepts =
    List.length
      (List.filter
         (fun (row : I.dt_row) ->
           List.mem row.I.dr_cause [ I.cause_accept; I.cause_breakpoint; I.cause_guide ])
         dt)
  in
  Alcotest.(check int) "one accepted-cause row per accepted step" res.T.stats.T.accepted_steps
    accepts;
  List.iter
    (fun (row : I.newton_row) ->
      Alcotest.(check bool) "finite delta" true (Float.is_finite row.I.nr_delta))
    (I.newton_rows r);
  (* blame and the accept/reject decision share one tolerance *)
  List.iter
    (fun (row : I.lte_row) ->
      Alcotest.(check bool) "blamed node left its LTE band" true (row.I.lr_ratio > 1.0))
    (I.lte_rows r);
  List.iter
    (fun c ->
      Alcotest.(check bool) "cause has a name" true (String.length (I.cause_name c) > 0))
    [ I.cause_accept; I.cause_breakpoint; I.cause_guide; I.cause_lte; I.cause_newton_fail ]

(* ------------------------------------------------------------------ *)
(* Sparse-LU health and fallback reasons *)

let csc_of_dense rows =
  let n = Array.length rows in
  let t = Sp.triplet_create n in
  Array.iteri (fun i row -> Array.iteri (fun j v -> if v <> 0.0 then Sp.add t i j v) row) rows;
  Sp.csc_of_pattern (Sp.compress t)

let test_lu_health_numbers () =
  let a = csc_of_dense [| [| 1.0; 0.0 |]; [| 0.0; 1e-8 |] |] in
  let f = SL.factorize a in
  let h = SL.health f a in
  Alcotest.(check bool) "pivot growth ~1 on a diagonal matrix" true
    (h.SL.pivot_growth >= 0.99 && h.SL.pivot_growth <= 1.01);
  Alcotest.(check bool) "u diag extremes" true
    (h.SL.u_diag_max >= 0.99 && h.SL.u_diag_min <= 1.01e-8);
  Alcotest.(check bool) "condition estimate ~1e8" true
    (h.SL.condition_estimate >= 1e7 && h.SL.condition_estimate <= 1e9)

let test_lu_refactor_failure_reasons () =
  (* pattern mismatch: a structurally identical matrix built from a
     different pattern object is not reusable *)
  let a = csc_of_dense [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let f = SL.factorize a in
  let b = csc_of_dense [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  Alcotest.(check bool) "pattern mismatch refuses" false (SL.refactorize f b);
  (match SL.last_refactor_failure f with
  | Some SL.Mismatched_pattern -> ()
  | _ -> Alcotest.fail "expected Mismatched_pattern");
  (* recycled pivot collapse: rewrite the same pattern's values with ones that
     make the recycled pivot vanish *)
  let t = Sp.triplet_create 2 in
  Sp.add t 0 0 1.0;
  Sp.add t 0 1 2.0;
  Sp.add t 1 0 3.0;
  Sp.add t 1 1 4.0;
  let pat = Sp.compress t in
  let a = Sp.csc_of_pattern pat in
  let f = SL.factorize a in
  Alcotest.(check bool) "same-pattern refactorization works" true (SL.refactorize f a);
  Alcotest.(check (option unit)) "no failure recorded after success" None
    (Option.map ignore (SL.last_refactor_failure f));
  (* collapse the whole first column so the recycled pivot vanishes
     whichever row the original elimination picked *)
  let slot = Sp.entry_of_triplet pat in
  Array.iteri (fun k v -> a.Sp.values.(slot.(k)) <- v) [| 1e-30; 2.0; 1e-30; 4.0 |];
  Alcotest.(check bool) "collapsed pivot refuses" false (SL.refactorize f a);
  match SL.last_refactor_failure f with
  | Some (SL.Small_pivot _ | SL.Unstable_pivot _) -> ()
  | _ -> Alcotest.fail "expected a pivot-collapse reason"

(* ------------------------------------------------------------------ *)
(* explain: a pure function of the source manifest *)

let test_explain_deterministic_and_blaming () =
  let path = Filename.temp_file "cmldft_explain" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let defects =
        [
          D.Pipe { device = "x3.q3"; r = 4e3 };
          D.Terminal_short { device = "x3.q2"; t1 = "c"; t2 = "e" };
        ]
      in
      (* cold start under a tight Newton cap: marginal solves fail
         visibly, which is exactly what the post-mortem must blame *)
      ignore
        (Cml_defects.Campaign.run ~jobs:1 ~warm_start:false ~max_iter:12 ~manifest:path
           ~defects ());
      let doc () = Json.to_string (PM.to_json (Cml_dft.Explain.explain_path path)) in
      let one = doc () in
      let two = doc () in
      Alcotest.(check string) "byte-identical post-mortem JSON" one two;
      let pm = Cml_dft.Explain.explain_path path in
      (* the auto pick is deterministic: the first variant with the
         most recorded Newton iterations, never a wall-clock ranking *)
      let most_iters =
        List.fold_left
          (fun (best, n) v ->
            let k = List.assoc "newton_iters" v.Cml_telemetry.Manifest.v_metrics in
            if k > n then (v.Cml_telemetry.Manifest.v_name, k) else (best, n))
          ("", neg_infinity)
          (Cml_telemetry.Manifest.read ~path).Cml_telemetry.Manifest.variants
      in
      Alcotest.(check string) "auto picks the most Newton iterations" (fst most_iters)
        pm.PM.pm_variant;
      Alcotest.(check string) "and says so"
        (Printf.sprintf "most Newton iterations (%.0f)" (snd most_iters))
        pm.PM.pm_selection;
      (* the re-simulation replays the campaign's variant exactly *)
      let recorded =
        List.find
          (fun v -> v.Cml_telemetry.Manifest.v_name = pm.PM.pm_variant)
          (Cml_telemetry.Manifest.read ~path).Cml_telemetry.Manifest.variants
      in
      List.iter
        (fun key ->
          Alcotest.(check (option (float 0.0)))
            (Printf.sprintf "re-simulated %s equals the manifest's" key)
            (List.assoc_opt key recorded.Cml_telemetry.Manifest.v_metrics)
            (List.assoc_opt key pm.PM.pm_stats);
          Alcotest.(check bool) (key ^ " recorded") true (List.mem_assoc key pm.PM.pm_stats))
        [ "accepted_steps"; "rejected_steps"; "newton_iters" ];
      Alcotest.(check bool) "an LTE rejection is blamed on a named node" true
        (List.exists (fun l -> l.PM.l_node <> "") pm.PM.pm_lte);
      Alcotest.(check bool) "a Newton retry is blamed" true (pm.PM.pm_retries <> []);
      Alcotest.(check bool) "newton failures counted" true
        (match List.assoc_opt "newton_failures" pm.PM.pm_stats with
        | Some n -> n > 0.0
        | None -> false);
      (* round-trip through the JSON schema *)
      let path2 = Filename.temp_file "cmldft_pm" ".json" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path2 with Sys_error _ -> ())
        (fun () ->
          PM.write ~path:path2 pm;
          let back = PM.read ~path:path2 in
          Alcotest.(check string) "render identical after round-trip" (PM.render_text pm)
            (PM.render_text back)))

(* A compiled-design campaign replays each variant on the netlist it
   was measured on: a c432 site that stayed on its cone's cut replays
   the cut, one whose cut aborted replays the cone, each step for step
   as the campaign ran it. *)
let test_explain_cut_variants () =
  let bench = Filename.temp_file "cmldft_c432" ".bench" in
  let path = Filename.temp_file "cmldft_explain_cut" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ bench; path ])
    (fun () ->
      let circuit = Cml_logic.Bench_circuits.c432_surrogate () in
      Out_channel.with_open_text bench (fun oc ->
          output_string oc (Cml_logic.Bench_format.to_string circuit));
      let freq = 200e6 in
      let design = Cml_cells.Compile.compile ~freq (Cml_logic.Bench_format.read_file ~path:bench) in
      let golden = Cml_cells.Compile.netlist design in
      let dut = Option.get (Cml_cells.Compile.find_cell design "n36") in
      let final =
        List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs
      in
      let names = [ "C-E pipe (4 kohm) on n36.lsn.qf"; "open at c of n36.lsn.qt" ] in
      let defects =
        List.filter
          (fun d -> List.mem (D.describe d) names)
          (Cml_defects.Sites.enumerate golden ~prefix:"n36" ~pipe_values:[ 4e3 ])
      in
      ignore
        (Cml_defects.Campaign.run_design ~freq ~tstop:1.5e-9 ~jobs:1 ~manifest:path
           ~options:[ ("bench", bench); ("dut", "n36") ]
           ~golden ~input:design.Cml_cells.Compile.input ~dut ~final ~defects ());
      let recorded = (Cml_telemetry.Manifest.read ~path).Cml_telemetry.Manifest.variants in
      List.iter
        (fun (name, replayed) ->
          let pm = Cml_dft.Explain.explain_path ~selection:(Cml_dft.Explain.Named name) path in
          Alcotest.(check string) "selected" name pm.PM.pm_variant;
          Alcotest.(check bool) (name ^ ": " ^ replayed) true (List.mem replayed pm.PM.pm_narrative);
          let v = List.find (fun v -> v.Cml_telemetry.Manifest.v_name = name) recorded in
          List.iter
            (fun key ->
              Alcotest.(check (option (float 0.0)))
                (Printf.sprintf "%s: re-simulated %s equals the manifest's" name key)
                (List.assoc_opt key v.Cml_telemetry.Manifest.v_metrics)
                (List.assoc_opt key pm.PM.pm_stats))
            [ "accepted_steps"; "rejected_steps"; "newton_iters" ])
        [
          ( "C-E pipe (4 kohm) on n36.lsn.qf",
            "Replayed on the cut at depth 1 (65 unknowns) the campaign measured it on." );
          ( "open at c of n36.lsn.qt",
            "Replayed on the fanout cone (431 unknowns) the campaign measured it on." );
        ])

let test_explain_rejects_foreign_sources () =
  let check_fails source =
    match Cml_dft.Explain.explain ~source (Cml_telemetry.Manifest.create ~kind:"op" ()) with
    | _ -> Alcotest.fail "expected Unexplainable"
    | exception Cml_dft.Explain.Unexplainable _ -> ()
  in
  check_fails "x"

(* ------------------------------------------------------------------ *)
(* trend: explicit no-history rendering *)

let test_trend_no_history () =
  let out = Cml_telemetry.Trend.render ~history:[] ~manifests:[] () in
  Alcotest.(check bool) "says no entries yet" true
    (let sub = "no entries yet" in
     let n = String.length out and m = String.length sub in
     let rec go i = i + m <= n && (String.sub out i m = sub || go (i + 1)) in
     go 0)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "introspect"
    [
      ( "parity",
        [ QCheck_alcotest.to_alcotest ~long:true prop_introspect_parity ] );
      ( "recorder",
        [ Alcotest.test_case "captures newton and dt rows" `Slow test_recorder_captures ] );
      ( "sparse-lu",
        [
          Alcotest.test_case "health numbers" `Quick test_lu_health_numbers;
          Alcotest.test_case "fallback reasons" `Quick test_lu_refactor_failure_reasons;
        ] );
      ( "explain",
        [
          Alcotest.test_case "deterministic, blames nets, round-trips" `Slow
            test_explain_deterministic_and_blaming;
          Alcotest.test_case "rejects non-campaign sources" `Quick
            test_explain_rejects_foreign_sources;
          Alcotest.test_case "replays c432 variants on their cut or cone" `Slow
            test_explain_cut_variants;
        ] );
      ( "trend", [ Alcotest.test_case "no history yet" `Quick test_trend_no_history ] );
    ]
