module E = Cml_spice.Engine
module N = Cml_spice.Netlist
module T = Cml_spice.Transient

type measurement = {
  dut_vlow : float;
  dut_vhigh : float;
  dut_swing : float;
  final_vlow : float;
  final_vhigh : float;
  final_swing : float;
  final_delay : float option;
  supply_current : float;
  degraded_at : int option;
  healing_depth : int option;
}

type flags = {
  stuck : bool;
  excessive_excursion : bool;
  reduced_swing : bool;
  delay_detectable : bool;
  iddq_detectable : bool;
  healed : bool;
}

type outcome = Measured of measurement * flags | Failed of string

type entry = { defect : Defect.t; outcome : outcome }

(* [variants] and [metrics] are telemetry riding alongside the
   deterministic [entries]: per-variant wall time and solver stats for
   the run manifest, and the metrics-registry movement over the whole
   campaign.  They are kept out of [entry] so a parallel run's entries
   stay structurally equal to a sequential run's. *)
type t = {
  reference : measurement;
  entries : entry list;
  variants : Cml_telemetry.Manifest.variant list;
  metrics : Cml_telemetry.Metrics.snapshot;
  utilization : Cml_telemetry.Events.domain_util list;
      (* per-domain busy/idle attribution over the variant phase *)
  wall_s : float;
}

(* What a campaign probes: the toggling input pair and named output
   pairs, which pair is the DUT and which the final output, and — on
   the buffer chain — the stage pairs, in chain order, whose waveforms
   give the healing profile (a compiled design has none). *)
type probe_set = {
  input : Cml_cells.Builder.diff;
  pairs : (string * Cml_cells.Builder.diff) list;
  dut : string;
  final : string;
  stages : string list;
}

let chain_probe_set chain ~dut =
  let n = Array.length chain.Cml_cells.Chain.stages in
  let stages = List.init n (fun i -> Cml_cells.Chain.stage_name (i + 1)) in
  {
    input = chain.Cml_cells.Chain.input;
    pairs = List.mapi (fun i s -> (s, Cml_cells.Chain.output chain (i + 1))) stages;
    dut = Cml_cells.Chain.stage_name dut;
    final = Cml_cells.Chain.stage_name n;
    stages;
  }

(* The nets a probe set samples: both sides of the input and every
   named pair. *)
let probe_nodes ps =
  List.concat_map
    (fun (name, d) ->
      [ (name ^ ".p", d.Cml_cells.Builder.p); (name ^ ".n", d.Cml_cells.Builder.n) ])
    (("in", ps.input) :: ps.pairs)

(* The rail supply branch of one compiled sim, when present. *)
let supply_probe sim =
  match E.branch_unknown sim "vdd" with exception Not_found -> [] | br -> [ ("i(vdd)", br) ]

(* The unknowns a probe set samples in one compiled sim of the golden
   layout: the probe nets plus the rail supply branch. *)
let probes ps sim =
  supply_probe sim @ List.map (fun (name, nd) -> (name, E.node_unknown nd)) (probe_nodes ps)

(* Extract the measurement (and the robust final-output plateau
   levels, the nominal levels of a reference run) from a finished
   run's streamed probes, looked up by name through [samples].
   Everything the classifier needs comes from the observers, never
   from the dense trajectory — which is what lets variants run with
   [record_every = 0]. *)
let analyze ps ?nominal samples ~freq ~tstop =
  let wave name =
    let times, values = samples name in
    Cml_wave.Wave.create times values
  in
  let t_from = tstop /. 2.0 in
  let supply_current =
    match wave "i(vdd)" with
    | exception Not_found -> 0.0
    | w ->
        let w = Cml_wave.Wave.map Float.abs w in
        Cml_wave.Wave.mean (Cml_wave.Wave.sub_range w ~t_from ~t_to:(Cml_wave.Wave.t_end w))
  in
  let wp_dut = wave (ps.dut ^ ".p") and wn_dut = wave (ps.dut ^ ".n") in
  let wp_fin = wave (ps.final ^ ".p") and wn_fin = wave (ps.final ^ ".n") in
  let lo_p, hi_p = Cml_wave.Measure.extremes wp_dut ~t_from in
  let lo_n, hi_n = Cml_wave.Measure.extremes wn_dut ~t_from in
  let lo_fp, hi_fp = Cml_wave.Measure.extremes wp_fin ~t_from in
  let lo_fn, hi_fn = Cml_wave.Measure.extremes wn_fin ~t_from in
  (* delay from the input pair's actual crossing to the final
     output's next actual crossing *)
  let w_in_p = wave "in.p" and w_in_n = wave "in.n" in
  let final_delay =
    match
      List.find_opt (fun t -> t >= t_from) (Cml_wave.Measure.differential_crossings w_in_p w_in_n)
    with
    | None -> None
    | Some t0 -> (
        match
          List.find_opt (fun t -> t > t0)
            (Cml_wave.Measure.differential_crossings wp_fin wn_fin)
        with
        | None -> None
        | Some t1 when t1 -. t0 < 0.75 /. freq -> Some (t1 -. t0)
        | Some _ -> None)
  in
  let degraded_at, healing_depth =
    match nominal with
    | Some (nominal_low, nominal_high) when ps.stages <> [] ->
        let stage_waves = List.map (fun s -> (s, wave (s ^ ".p"))) ps.stages in
        let p =
          Cml_wave.Health.profile ~nominal_low ~nominal_high ~t_from stage_waves
        in
        (p.Cml_wave.Health.first_degraded, p.Cml_wave.Health.healing_depth)
    | Some _ | None -> (None, None)
  in
  ( {
      dut_vlow = Float.min lo_p lo_n;
      dut_vhigh = Float.max hi_p hi_n;
      dut_swing = hi_p -. lo_p;
      final_vlow = Float.min lo_fp lo_fn;
      final_vhigh = Float.max hi_fp hi_fn;
      final_swing = hi_fp -. lo_fp;
      final_delay;
      supply_current;
      degraded_at;
      healing_depth;
    },
    Cml_wave.Measure.levels wp_fin ~t_from )

(* Compile one netlist.  [share] sees the compiled sim before its run
   — where a variant is offered its slice's symbolic LU donor. *)
let compile ?engine_options ?(share = ignore) net =
  let sim = E.compile ?options:engine_options net in
  share sim;
  sim

let simulate ?guide ?breakpoints ?(record_every = 1) sim obs net ~tstop =
  T.run ?guide ?breakpoints ~observers:obs sim net
    (T.config ~tstop ~max_step:10e-12 ~record_every ())

(* Simulate one netlist streaming the probe set, and measure it. *)
let measure_full ?engine_options ?share ?guide ?breakpoints ?record_every ?nominal ps net ~freq
    ~tstop =
  let sim = compile ?engine_options ?share net in
  let obs = T.observers (probes ps sim) in
  let r = simulate ?guide ?breakpoints ?record_every sim obs net ~tstop in
  let m, levels = analyze ps ?nominal (T.probe_samples obs) ~freq ~tstop in
  (m, r, levels, obs)

let measure_chain ?engine_options ?guide ?breakpoints ?record_every ?nominal chain net ~freq
    ~tstop ~dut =
  let m, _, _, _ =
    measure_full ?engine_options ?guide ?breakpoints ?record_every ?nominal
      (chain_probe_set chain ~dut) net ~freq ~tstop
  in
  m

let design_probe_set ~input ~dut ~final =
  { input; pairs = [ ("dut", dut); ("fin", final) ]; dut = "dut"; final = "fin"; stages = [] }

let measure_design ?engine_options ?guide ?breakpoints ?record_every ~input ~dut ~final net ~freq
    ~tstop =
  let m, _, _, _ =
    measure_full ?engine_options ?guide ?breakpoints ?record_every
      (design_probe_set ~input ~dut ~final) net ~freq ~tstop
  in
  m

let classify ~proc ~reference m =
  let swing = proc.Cml_cells.Process.swing in
  let stuck = m.final_swing < 0.5 *. swing in
  let excessive_excursion = m.dut_vlow < reference.dut_vlow -. 0.1 in
  let reduced_swing = (not stuck) && m.dut_swing < 0.6 *. swing in
  let delay_detectable =
    match (m.final_delay, reference.final_delay) with
    | Some d, Some d0 -> Float.abs (d -. d0) > 0.2 *. d0
    | None, Some _ -> not stuck  (* toggles but missed the window: gross delay shift *)
    | _, None -> false
  in
  let final_nominal =
    (not stuck)
    && Float.abs (m.final_vlow -. reference.final_vlow) < 0.2 *. swing
    && Float.abs (m.final_vhigh -. reference.final_vhigh) < 0.2 *. swing
    && Float.abs (m.final_swing -. reference.final_swing) < 0.2 *. swing
  in
  let iddq_detectable = m.supply_current > 1.15 *. reference.supply_current in
  let degraded_at_dut = excessive_excursion || reduced_swing || m.dut_vhigh > reference.dut_vhigh +. 0.1 in
  {
    stuck;
    excessive_excursion;
    reduced_swing;
    delay_detectable;
    iddq_detectable;
    healed = degraded_at_dut && final_nominal;
  }

(* Classification labels shared by [summary], the run manifest and
   [cmldft report]: a manifest's class histogram must reproduce the
   summary's counts label for label. *)
let flag_labels f =
  List.filter_map
    (fun (label, on) -> if on then Some label else None)
    [
      ("stuck-at", f.stuck);
      ("excessive-excursion", f.excessive_excursion);
      ("reduced-swing", f.reduced_swing);
      ("delay-detectable", f.delay_detectable);
      ("iddq-detectable", f.iddq_detectable);
      ("healed", f.healed);
    ]

(* Healing label of one measured entry: how many stages a degraded
   variant needed to recover ("depth=N"), "unhealed" for degradations
   that persist to the chain output, "clean" otherwise.  Shared by the
   manifest histogram and the per-variant run events. *)
let healing_label e =
  match e.outcome with
  | Failed _ -> None
  | Measured (m, _) -> (
      match (m.degraded_at, m.healing_depth) with
      | None, _ -> Some "clean"
      | Some _, Some d -> Some (Printf.sprintf "depth=%d" d)
      | Some _, None -> Some "unhealed")

let healing_histogram entries =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match healing_label e with
      | None -> ()
      | Some l -> Hashtbl.replace tbl l (1 + Option.value ~default:0 (Hashtbl.find_opt tbl l)))
    entries;
  List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

(* What a finished variant tells the run lifecycle: its class labels,
   the manifest's per-variant numbers (measurement, healing depth, the
   unknowns of the netlist it was measured on, solver stats, and the
   [cone] numbers of a variant routed to a cone) and the run event's
   healing label and step count. *)
let report entry run cone =
  let failed, classes, meas =
    match entry.outcome with
    | Failed _ -> (true, [ "failed" ], [])
    | Measured (m, fl) ->
        ( false,
          flag_labels fl,
          [
            ("dut_vlow", m.dut_vlow);
            ("dut_swing", m.dut_swing);
            ("final_swing", m.final_swing);
            ("supply_current", m.supply_current);
          ]
          @
          match m.healing_depth with
          | Some d -> [ ("healing_depth", float_of_int d) ]
          | None -> [] )
  in
  let solver, steps =
    match run with
    | None -> ([], 0)
    | Some (r : T.result) ->
        let s = r.T.stats in
        ( [
            ("unknowns", float_of_int (E.unknown_count r.T.sim));
            ("accepted_steps", float_of_int s.T.accepted_steps);
            ("rejected_steps", float_of_int s.T.rejected_steps);
            ("lte_rejections", float_of_int s.T.lte_rejections);
            ("newton_iters", float_of_int s.T.newton_iters);
            ("device_loads", float_of_int s.T.device_loads);
            ("bypassed_loads", float_of_int s.T.bypassed_loads);
            ("guided_seeds", float_of_int s.T.guided_seeds);
            ("cold_fallbacks", float_of_int s.T.cold_fallbacks);
          ],
          s.T.accepted_steps )
  in
  {
    Cml_runtime.Variant_loop.classes;
    metrics = meas @ solver @ cone;
    healing = healing_label entry;
    failed;
    steps;
  }

let to_manifest ?seed ?(options = []) t =
  let spans = Cml_telemetry.Trace.aggregate (Cml_telemetry.Trace.peek ()) in
  Cml_telemetry.Manifest.create ?seed ~options ~healing:(healing_histogram t.entries)
    ~variants:t.variants ~metrics:t.metrics ~spans ~kind:"campaign" ()

let m_cone_variants = Cml_telemetry.Metrics.counter "campaign.cone_variants"
let m_cone_fallbacks = Cml_telemetry.Metrics.counter "campaign.cone_fallbacks"

(* The one campaign driver behind [run] and [run_design]: simulate the
   fault-free circuit once, then every defect variant through the
   shared run lifecycle ({!Cml_runtime.Variant_loop}), in slices of at
   most 16 variants ([batch = false]: slices of one). *)
let campaign ~proc ~freq ~tstop ?jobs ~preflight ~warm_start ~batch ?max_iter ?manifest ~options
    ~golden ps defects =
  let window = Cml_runtime.Variant_loop.start () in
  let engine_options =
    Option.map (fun n -> { E.default_options with E.max_iter = n }) max_iter
  in
  if preflight then
    Cml_analysis.Lint.preflight_netlist ~what:"campaign golden netlist" golden;
  (* the stimulus is shared by every variant, and defect injection
     only ever adds resistors and capacitors, so the fault-free
     breakpoint schedule is valid for all of them — cones included,
     whose PWL boundary knots must not become breakpoints *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let reference, ref_traj, nominal, ref_obs =
    measure_full ?engine_options ~breakpoints ps golden ~freq ~tstop
  in
  (* the nominal trajectory seeds every variant's Newton solves;
     [T.run] ignores it for variants whose defect changed the unknown
     layout (an open adds a node) and falls back to cold seeding
     whenever the variant diverges from the nominal path *)
  let guide = if warm_start then Some ref_traj else None in
  (* A variant whose fanout cone is at most half the design simulates
     only that cone ({!Cone}), its boundary forced to the nominal
     waveforms.  Probes outside the cone read the reference streams,
     and the supply current is the reference's with the cone's nominal
     share swapped for the variant's own. *)
  let cone_of = Cone.plan golden ~reference:ref_traj defects in
  (* kept only when some variant takes a cone: the streams outlive the
     reference run *)
  let ref_samples =
    if List.exists (fun d -> Option.is_some (cone_of d)) defects then T.probe_list ref_obs else []
  in
  let reference_samples name =
    match List.find_opt (fun (n, _, _) -> n = name) ref_samples with
    | Some (_, times, values) -> (times, values)
    | None -> raise Not_found
  in
  let cone_probes cone sim =
    supply_probe sim
    @ List.filter_map
        (fun (name, nd) ->
          Option.map (fun c -> (name, E.node_unknown c)) (Cone.node cone (N.node_name golden nd)))
        (probe_nodes ps)
  in
  let on_cone ~share cone faulty =
    let sim = compile ?engine_options ~share faulty in
    let draw = Cone.meter cone sim in
    let obs = T.observers ~on_step:(Cone.record draw) (cone_probes cone sim) in
    let guide = if warm_start then Some (Cone.guide cone) else None in
    let r = simulate ?guide ~breakpoints ~record_every:0 sim obs faulty ~tstop in
    let samples name =
      match T.probe_samples obs name with s -> s | exception Not_found -> reference_samples name
    in
    let m, _ = analyze ps ~nominal samples ~freq ~tstop in
    let supply_current =
      reference.supply_current -. Cone.nominal_supply cone +. m.supply_current
    in
    ({ m with supply_current }, r, Cone.peak draw)
  in
  let options =
    options
    @ [
        ("freq", Printf.sprintf "%g" freq);
        ("tstop", Printf.sprintf "%g" tstop);
        ("warm_start", string_of_bool warm_start);
        ("batch", string_of_bool batch);
        ("defects", string_of_int (List.length defects));
      ]
    @ match max_iter with None -> [] | Some n -> [ ("max_iter", string_of_int n) ]
  in
  (* Within a slice, the first completed variant of each unknown layout
     donates its sparse symbolic analysis to the slice's later variants
     of that layout ({!Cml_spice.Engine.share_symbolic}): one column
     ordering per layout per slice instead of one per defect.  Variants
     keep no dense trajectory ([record_every = 0]): classification is
     pure probe work.  Each variant injects into its own copy of the
     netlist and compiles its own sim, so slices share only read-only
     state and can run on worker domains. *)
  let slice () =
    let donors = Hashtbl.create 2 in
    let share sim =
      Option.iter
        (fun donor -> E.share_symbolic ~donor sim)
        (Hashtbl.find_opt donors (E.unknown_count sim))
    in
    let measured m (r : T.result) =
      let width = E.unknown_count r.T.sim in
      if not (Hashtbl.mem donors width) then Hashtbl.add donors width r.T.sim;
      (Measured (m, classify ~proc ~reference m), Some r)
    in
    let full defect =
      match Inject.apply golden defect with
      | exception (Not_found | Invalid_argument _) -> (Failed "injection failed", None)
      | faulty -> (
          match
            measure_full ?engine_options ~share ?guide ~breakpoints ~record_every:0 ~nominal ps
              faulty ~freq ~tstop
          with
          | m, r, _, _ -> measured m r
          | exception E.No_convergence msg -> (Failed msg, None))
    in
    (* the cone is abandoned for the full netlist when it does not
       converge, or when a boundary source on a non-ideal net delivers
       more than a tail current: the defect then reaches back into a
       driver the cone does not simulate *)
    let fallback defect cone_metrics =
      Cml_telemetry.Metrics.incr m_cone_fallbacks;
      (full defect, ("fallback", 1.0) :: cone_metrics)
    in
    fun defect ->
      let cone_variant =
        Option.bind (cone_of defect) (fun cone ->
            match Inject.apply (Cone.netlist cone) defect with
            | faulty -> Some (cone, faulty)
            | exception (Not_found | Invalid_argument _) -> None)
      in
      let (outcome, run), cone_metrics =
        match cone_variant with
        | None -> (full defect, [])
        | Some (cone, faulty) -> (
            match on_cone ~share cone faulty with
            | m, r, draw when draw <= proc.Cml_cells.Process.i_tail ->
                Cml_telemetry.Metrics.incr m_cone_variants;
                (measured m r, [ ("fallback", 0.0); ("boundary_draw", draw) ])
            | _, _, draw -> fallback defect [ ("boundary_draw", draw) ]
            | exception E.No_convergence _ -> fallback defect [])
      in
      let entry = { defect; outcome } in
      (entry, report entry run cone_metrics)
  in
  let v =
    Cml_runtime.Variant_loop.run window ~kind:"campaign" ~item:"variant" ?jobs
      ~max_batch:(if batch then 16 else 1)
      ~options ~name:Defect.describe ~slice (Array.of_list defects)
  in
  let t =
    {
      reference;
      entries = Array.to_list v.results;
      variants = v.variants;
      metrics = v.metrics;
      utilization = v.utilization;
      wall_s = v.wall_s;
    }
  in
  Option.iter (fun path -> Cml_telemetry.Manifest.write ~path (to_manifest ~options t)) manifest;
  t

let run ?(proc = Cml_cells.Process.default) ?(freq = 100e6) ?(stages = 8) ?dut ?tstop ?jobs
    ?(preflight = true) ?(warm_start = true) ?(batch = true) ?max_iter ?manifest ~defects () =
  let dut = match dut with Some d -> d | None -> Cml_cells.Chain.dut_stage in
  let tstop = match tstop with Some t -> t | None -> 2.0 /. freq in
  let chain = Cml_cells.Chain.build ~proc ~stages ~freq () in
  campaign ~proc ~freq ~tstop ?jobs ~preflight ~warm_start ~batch ?max_iter ?manifest
    ~options:[ ("stages", string_of_int stages); ("dut", string_of_int dut) ]
    ~golden:chain.Cml_cells.Chain.builder.Cml_cells.Builder.net (chain_probe_set chain ~dut)
    defects

let run_design ?(proc = Cml_cells.Process.default) ?(freq = 100e6) ?tstop ?jobs
    ?(preflight = true) ?(warm_start = true) ?(batch = true) ?max_iter ?manifest
    ?(options = []) ~golden ~input ~dut ~final ~defects () =
  let tstop = match tstop with Some t -> t | None -> 2.0 /. freq in
  campaign ~proc ~freq ~tstop ?jobs ~preflight ~warm_start ~batch ?max_iter ?manifest ~options
    ~golden (design_probe_set ~input ~dut ~final) defects

let summary t =
  let count p = List.length (List.filter p t.entries) in
  let flagged f = count (fun e -> match e.outcome with Measured (_, fl) -> f fl | Failed _ -> false) in
  [
    ("defects", List.length t.entries);
    ("stuck-at", flagged (fun f -> f.stuck));
    ("excessive-excursion", flagged (fun f -> f.excessive_excursion));
    ("excursion-not-stuck", flagged (fun f -> f.excessive_excursion && not f.stuck));
    ("reduced-swing", flagged (fun f -> f.reduced_swing));
    ("delay-detectable", flagged (fun f -> f.delay_detectable));
    ("iddq-detectable", flagged (fun f -> f.iddq_detectable));
    ("healed", flagged (fun f -> f.healed));
    ( "benign",
      flagged (fun f ->
          not (f.stuck || f.excessive_excursion || f.reduced_swing || f.delay_detectable)) );
    ("failed", count (fun e -> match e.outcome with Failed _ -> true | Measured _ -> false));
  ]
