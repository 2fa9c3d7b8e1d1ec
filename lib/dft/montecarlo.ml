module E = Cml_spice.Engine
module Tel = Cml_telemetry

type result = {
  samples : int;
  false_alarms : int;
  missed : int;
  good_vout_min : float;
  good_vout_max : float;
  bad_vout_max : float;
  separation : float;
  good_vouts : float array;
  bad_vouts : float array;
  sample_reports : Tel.Manifest.variant list;
  metrics : Tel.Metrics.snapshot;
  utilization : Tel.Events.domain_util list;
  wall_s : float;
}

let run ?(proc = Cml_cells.Process.default) ?(spec = Cml_defects.Variation.default_spec)
    ?(n = 10) ?defect ?(multi_emitter = true) ?jobs ?(warm_start = true) ?manifest ~samples
    ~seed () =
  let defect =
    match defect with
    | Some d -> d
    | None ->
        Cml_defects.Defect.Pipe
          { device = Printf.sprintf "x%d.q3" (((n - 1) / 2) + 1); r = 4e3 }
  in
  let window = Cml_runtime.Variant_loop.start () in
  let built = Sharing.build ~proc ~multi_emitter ~n () in
  let golden = built.Sharing.builder.Cml_cells.Builder.net in
  let faulty = Cml_defects.Inject.apply golden defect in
  let vtest_value = Detector.vtest_test proc in
  let lo, hi = Readout.thresholds Readout.default_config ~vtest:vtest_value in
  let decision = (lo +. hi) /. 2.0 in
  (* the unperturbed sims and operating points: process variation
     moves values, not topology, so every perturbed sample compiles on
     its netlist's nominal layout, whose symbolic LU analysis its first
     factorization adopts where a pivot search would pick the same
     pivots, and its Newton solve starts from the nominal solution
     ([dc_from] falls back to the homotopy ladder when a sample strays
     too far) *)
  let nominal net =
    if warm_start then
      let sim = E.compile net in
      Some (sim, E.dc_operating_point sim)
    else None
  in
  let nom_good = nominal golden and nom_bad = nominal faulty in
  let measure net nom k =
    let perturbed = Cml_defects.Variation.perturb ~spec ~seed:(seed + k) net in
    let sim = E.compile perturbed in
    let x = match nom with Some (_, x0) -> E.dc_from sim x0 | None -> E.dc_operating_point sim in
    E.publish_metrics sim;
    let vfb = E.voltage x built.Sharing.readout.Readout.vfb in
    let vout = E.voltage x built.Sharing.readout.Readout.vout in
    (vfb > decision, vout)
  in
  let run_options =
    [
      ("n", string_of_int n);
      ("samples", string_of_int samples);
      ("defect", Cml_defects.Defect.describe defect);
      ("warm_start", string_of_bool warm_start);
    ]
  in
  (* each sample derives its own perturbed netlist from (seed + k)
     and a sim of its own, so samples are independent variants of
     the shared run loop; its contiguous slices (one pool task each)
     pay the per-task wake-up/handoff cost per slice, not per sample *)
  let sample k =
    let ((flagged_good, vout_good) as good) = measure golden nom_good k in
    let ((flagged_bad, vout_bad) as bad) = measure faulty nom_bad k in
    ( (good, bad),
      {
        Cml_runtime.Variant_loop.classes =
          ((if flagged_good then [ "false-alarm" ] else [])
          @ if flagged_bad then [ "detected" ] else [ "missed" ]);
        metrics = [ ("good_vout", vout_good); ("bad_vout", vout_bad) ];
        healing = None;
        failed = false;
        steps = 0 (* DC-only: no transient steps *);
      } )
  in
  let v =
    Cml_runtime.Variant_loop.run window ~kind:"montecarlo" ~item:"sample" ?jobs ~seed ?manifest
      ~options:run_options ~name:(Printf.sprintf "sample %d") ~variant:sample
      (Array.init samples Fun.id)
  in
  let count p = Array.fold_left (fun acc o -> if p o then acc + 1 else acc) 0 v.results in
  let good_vouts = Array.map (fun ((_, vout), _) -> vout) v.results in
  let bad_vouts = Array.map (fun (_, (_, vout)) -> vout) v.results in
  let gmin = Cml_numerics.Stats.minimum good_vouts in
  let r =
    {
      samples;
      false_alarms = count (fun ((flagged, _), _) -> flagged);
      missed = count (fun (_, (flagged, _)) -> not flagged);
      good_vout_min = gmin;
      good_vout_max = Cml_numerics.Stats.maximum good_vouts;
      bad_vout_max = Cml_numerics.Stats.maximum bad_vouts;
      separation = gmin -. Cml_numerics.Stats.maximum bad_vouts;
      good_vouts;
      bad_vouts;
      sample_reports = v.variants;
      metrics = v.metrics;
      utilization = v.utilization;
      wall_s = v.wall_s;
    }
  in
  (* Finish the major cycle before returning.  OCaml 5's major GC is
     paced by allocation; with the layout's symbolic analysis a run no
     longer allocates a fresh set of LU arrays per sample, so the
     major GC falls behind the per-sample garbage (perturbed netlists,
     sample sims) and back-to-back runs grow the heap — about 15%
     peak RSS on the N = 45 run — although live data stays the same.
     One collection per run costs far less than a sample. *)
  Gc.full_major ();
  r
