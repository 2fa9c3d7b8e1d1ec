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
  active_cone : int option;
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

(* A probe of [ps], by name, read from a reference run. *)
let probe_of ps trajectory name = Cone.samples trajectory (List.assoc name (probe_nodes ps))

(* Extract the measurement (and the robust final-output plateau
   levels, the nominal levels of a reference run) from a finished
   run: its probes by their names in [probe_nodes] through [samples],
   its supply current from its monitor [mon] (0 without one). *)
let analyze ps ?nominal mon samples ~freq ~tstop =
  let wave name =
    let times, values = samples name in
    Cml_wave.Wave.create times values
  in
  let t_from = tstop /. 2.0 in
  let supply_current =
    match Cone.supply mon with
    | exception Not_found -> 0.0
    | times, values ->
        let w = Cml_wave.Wave.map Float.abs (Cml_wave.Wave.create times values) in
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

(* One run of [sim] (compiled from [net]) streaming the probe nets
   [node] finds in it, with [mon] on every accepted step, measured;
   a probe it does not stream reads [outside].  Everything the
   classifier needs comes from the observers, never from the dense
   trajectory, which is what lets variants run with
   [record_every = 0]. *)
let measure_run ?guide ?breakpoints ?(record_every = 1) ?nominal ~node ~outside ps sim mon net
    ~freq ~tstop =
  let probes =
    List.filter_map
      (fun (name, nd) -> Option.map (fun c -> (name, E.node_unknown c)) (node nd))
      (probe_nodes ps)
  in
  let obs = T.observers ~on_step:(Cone.observe mon) probes in
  let r =
    T.run ?guide ?breakpoints ~observers:obs sim net
      (T.config ~tstop ~max_step:10e-12 ~record_every ())
  in
  let samples name =
    match T.probe_samples obs name with s -> s | exception Not_found -> outside name
  in
  (fst (analyze ps ?nominal mon samples ~freq ~tstop), r)

(* Simulate one whole netlist streaming the probe set, and measure it. *)
let measure_full ?engine_options ?guide ?breakpoints ?record_every ?nominal ps net ~freq ~tstop =
  let sim = E.compile ?options:engine_options net in
  measure_run ?guide ?breakpoints ?record_every ?nominal ~node:Option.some
    ~outside:(fun _ -> raise Not_found)
    ps sim (Cone.monitor sim) net ~freq ~tstop

let measure_chain ?engine_options ?guide ?breakpoints ?record_every ?nominal chain net ~freq
    ~tstop ~dut =
  fst
    (measure_full ?engine_options ?guide ?breakpoints ?record_every ?nominal
       (chain_probe_set chain ~dut) net ~freq ~tstop)

let design_probe_set ~input ~dut ~final =
  { input; pairs = [ ("dut", dut); ("fin", final) ]; dut = "dut"; final = "fin"; stages = [] }

let measure_design ?engine_options ?guide ?breakpoints ?record_every ~input ~dut ~final net ~freq
    ~tstop =
  fst
    (measure_full ?engine_options ?guide ?breakpoints ?record_every
       (design_probe_set ~input ~dut ~final) net ~freq ~tstop)

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
   that persist to the chain output, "clean" otherwise.  The run
   lifecycle puts it in the run events and the manifest's healing
   histogram. *)
let healing_label e =
  match e.outcome with
  | Failed _ -> None
  | Measured (m, _) -> (
      match (m.degraded_at, m.healing_depth) with
      | None, _ -> Some "clean"
      | Some _, Some d -> Some (Printf.sprintf "depth=%d" d)
      | Some _, None -> Some "unhealed")

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

let m_cone_variants = Cml_telemetry.Metrics.counter "campaign.cone_variants"
let m_cone_fallbacks = Cml_telemetry.Metrics.counter "campaign.cone_fallbacks"
let m_reference_fallbacks = Cml_telemetry.Metrics.counter "campaign.reference_fallbacks"
let m_cut_variants = Cml_telemetry.Metrics.counter "campaign.cut_variants"
let m_cut_aborts = Cml_telemetry.Metrics.counter "campaign.cut_aborts"

(* How far a cut net may stray from its reference wave before a cut
   variant re-runs on its cone: swing / 25, 10 mV at the default
   250 mV swing.  On the c432 surrogate's default DUT, one cell level
   past the attacked cell, every site's worst deviation over a 5 ns
   run falls into one of two groups: at most 7.0 mV (benign or
   healed) or at least 13.0 mV (the fault reaches the next level, or
   is stuck). *)
let cut_epsilon proc = proc.Cml_cells.Process.swing /. 25.0

type reference = {
  measurement : measurement;
  nominal : float * float;
  trajectory : Cone.reference;
  unknowns : int;
  active_cone : int option;
  breakpoints : float array;
}

let vdd_current sim x =
  match E.branch_unknown sim "vdd" with br -> Float.abs x.(br) | exception Not_found -> 0.0

(* The fault-free run every variant is classified against, driven
   from and guided by.  When the active cone (the fanout of the
   toggling inputs) passes the cone rule, only it runs a transient, on
   top of the full netlist's DC operating point: every net outside it
   holds its DC value.  The full transient runs instead when the cone
   is too large, when the cone run does not converge, or when a held
   boundary net must deliver more than a tail current.  Either way the
   run is dense and measured from its own rows: its columns are what
   probe observers would have streamed. *)
let reference ?engine_options ~proc ps golden ~freq ~tstop =
  let tok = Cml_telemetry.Trace.start () in
  (* the stimulus is shared by every variant, and defect injection
     only ever adds resistors and capacitors, so the fault-free
     breakpoint schedule is valid for all of them — cones included,
     whose PWL boundary knots must not become breakpoints *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let dense ?x0 sim net =
    T.run ?x0 ~breakpoints sim net (T.config ~tstop ~max_step:10e-12 ())
  in
  let measure ?driven trajectory (r : T.result) =
    let mon = Cone.monitor ?driven r.T.sim in
    Array.iteri (fun k x -> Cone.observe mon r.T.times.(k) x) r.T.data;
    let m, nominal = analyze ps mon (probe_of ps trajectory) ~freq ~tstop in
    (m, nominal, Cone.draw mon)
  in
  let full () =
    let r = dense (E.compile ?options:engine_options golden) golden in
    let trajectory = Cone.of_run golden r in
    let measurement, nominal, _ = measure trajectory r in
    {
      measurement;
      nominal;
      trajectory;
      unknowns = E.unknown_count r.T.sim;
      active_cone = None;
      breakpoints;
    }
  in
  let on_cone cone =
    let gsim = E.compile ?options:engine_options golden in
    let dc = E.dc_operating_point ~time:0.0 gsim in
    let op = Cone.operating_point golden gsim dc in
    let d = Cone.drive cone ~reference:op in
    let net = Cone.netlist d in
    let r = dense ~x0:(Cone.start d) (E.compile ?options:engine_options net) net in
    let trajectory = Cone.with_run op net r in
    let m, nominal, draw = measure ~driven:d trajectory r in
    if not (draw <= proc.Cml_cells.Process.i_tail) then None
    else
      (* the full netlist's DC supply with the cone's DC share swapped
         for its transient current *)
      let supply_current = vdd_current gsim dc -. Cone.nominal_supply d +. m.supply_current in
      Some
        {
          measurement = { m with supply_current };
          nominal;
          trajectory;
          unknowns = E.unknown_count r.T.sim;
          active_cone = Some (Cone.unknowns cone);
          breakpoints;
        }
  in
  let fallback () =
    Cml_telemetry.Metrics.incr m_reference_fallbacks;
    full ()
  in
  let r =
    match Cone.active golden with
    | Some cone when Cone.selected cone -> (
        match on_cone cone with
        | Some r -> r
        | None -> fallback ()
        | exception E.No_convergence _ -> fallback ())
    | Some _ | None -> full ()
  in
  Cml_telemetry.Trace.finish ~cat:"campaign"
    ~args:
      [
        ("unknowns", Cml_telemetry.Trace.I r.unknowns);
        ("path", Cml_telemetry.Trace.S (if r.active_cone = None then "full" else "cone"));
      ]
    "campaign.reference" tok;
  r

let reference_option = function Some k -> Printf.sprintf "cone:%d" k | None -> "full"

(* The one campaign driver behind [run] and [run_design]: simulate the
   fault-free circuit once ({!reference}), then every defect variant
   through the shared run lifecycle ({!Cml_runtime.Variant_loop}), in
   pool tasks of at most 16 variants ([batch = false]: one variant per
   task). *)
let campaign ~proc ~freq ~tstop ?jobs ~preflight ~warm_start ~batch ?max_iter ?manifest ~options
    ~golden ps defects =
  let window = Cml_runtime.Variant_loop.start () in
  let engine_options =
    Option.map (fun n -> { E.default_options with E.max_iter = n }) max_iter
  in
  if preflight then
    Cml_analysis.Lint.preflight_netlist ~what:"campaign golden netlist" golden;
  let { measurement = reference; nominal; trajectory; breakpoints; active_cone; _ } =
    reference ?engine_options ~proc ps golden ~freq ~tstop
  in
  (* the reference seeds every variant's Newton solves; [T.run]
     ignores it for variants whose defect changed the unknown layout
     (an open adds a node) and falls back to cold seeding whenever the
     variant diverges from the nominal path *)
  let guide () = if warm_start then Some (Cone.full_guide trajectory) else None in
  (* A variant whose fanout cone is at most half the design tries the
     rungs {!Cone.plan} gives it, the cone's cut at the healing depth
     first, then the cone, each driven by the nominal waveforms.
     Probes outside the simulated cells read the reference
     ({!Cone.samples}), and the supply current is the reference's with
     the rung's nominal share swapped for the variant's own. *)
  let rungs_of = Cone.plan trajectory defects in
  let epsilon = cut_epsilon proc in
  let i_tail = proc.Cml_cells.Process.i_tail in
  let options =
    options
    @ [
        ("freq", Printf.sprintf "%g" freq);
        ("tstop", Printf.sprintf "%g" tstop);
        ("warm_start", string_of_bool warm_start);
        ("batch", string_of_bool batch);
        ("defects", string_of_int (List.length defects));
        ("reference", reference_option active_cone);
      ]
    @ match max_iter with None -> [] | Some n -> [ ("max_iter", string_of_int n) ]
  in
  (* Variants keep no dense trajectory ([record_every = 0]):
     classification is pure probe work.  Each variant injects into its
     own copy of the netlist and compiles its own sim, so variants share
     only read-only state and can run on worker domains. *)
  let measured m (r : T.result) = (Measured (m, classify ~proc ~reference m), Some r) in
  let full defect =
    match Inject.apply golden defect with
    | exception (Not_found | Invalid_argument _) -> (Failed "injection failed", None)
    | faulty -> (
        match
          measure_full ?engine_options ?guide:(guide ()) ~breakpoints ~record_every:0 ~nominal ps
            faulty ~freq ~tstop
        with
        | m, r -> measured m r
        | exception E.No_convergence msg -> (Failed msg, None))
  in
  (* One run of a faulty copy of a rung's netlist. *)
  let on_rung d faulty =
    let sim = E.compile ?options:engine_options faulty in
    let mon = Cone.monitor ~driven:d ~epsilon sim in
    let m, r =
      measure_run
        ?guide:(if warm_start then Cone.guide d else None)
        ~breakpoints ~record_every:0 ~nominal
        ~node:(fun nd -> Cone.node d (N.node_name golden nd))
        ~outside:(probe_of ps trajectory) ps sim mon faulty ~freq ~tstop
    in
    let supply_current = reference.supply_current -. Cone.nominal_supply d +. m.supply_current in
    ({ m with supply_current }, r, mon)
  in
  (* A variant leaves a rung for the next one (the full netlist after
     the last) when its run does not converge, when a held source
     delivers more than a tail current (the defect reaches back into a
     driver the rung does not simulate), or, on a cut, when a cut net
     leaves the reference by more than [epsilon].  A defect that does
     not inject into a rung skips it. *)
  let rec on_rungs defect = function
    | [] -> (full defect, [])
    | d :: rest -> (
        match Inject.apply (Cone.netlist d) defect with
        | exception (Not_found | Invalid_argument _) -> on_rungs defect rest
        | faulty -> (
            let cut = Cone.depth d in
            let tag left =
              match cut with
              | Some k -> [ ("cut", float_of_int k); ("cut_abort", left) ]
              | None -> [ ("fallback", left) ]
            in
            let deviation mon = if cut = None then [] else [ ("cut_deviation", Cone.deviation mon) ] in
            let draw mon = [ ("boundary_draw", Cone.draw mon) ] in
            let leave metrics =
              Cml_telemetry.Metrics.incr (if cut = None then m_cone_fallbacks else m_cut_aborts);
              let result, next = on_rungs defect rest in
              (result, tag 1.0 @ metrics @ next)
            in
            match on_rung d faulty with
            | m, r, mon when Cone.draw mon <= i_tail ->
                Cml_telemetry.Metrics.incr (if cut = None then m_cone_variants else m_cut_variants);
                (measured m r, tag 0.0 @ deviation mon @ draw mon)
            | _, _, mon -> leave (if cut = None then draw mon else deviation mon)
            | exception Cone.Deviation (t, dv) -> leave [ ("cut_deviation", dv); ("cut_abort_at", t) ]
            | exception E.No_convergence _ -> leave []))
  in
  let variant defect =
    let (outcome, run), metrics = on_rungs defect (rungs_of defect) in
    let entry = { defect; outcome } in
    (entry, report entry run metrics)
  in
  (* an unexpected exception fails its own variant, never the run *)
  let variant defect =
    match variant defect with
    | v -> v
    | exception e ->
        let entry = { defect; outcome = Failed ("internal: " ^ Printexc.to_string e) } in
        (entry, report entry None [])
  in
  let v =
    Cml_runtime.Variant_loop.run window ~kind:"campaign" ~item:"variant" ?jobs
      ~max_batch:(if batch then 16 else 1)
      ?manifest ~options ~name:Defect.describe ~variant (Array.of_list defects)
  in
  {
    reference;
    active_cone;
    entries = Array.to_list v.results;
    variants = v.variants;
    metrics = v.metrics;
    utilization = v.utilization;
    wall_s = v.wall_s;
  }

let chain_reference ?engine_options ?(proc = Cml_cells.Process.default) chain ~freq ~tstop ~dut =
  reference ?engine_options ~proc (chain_probe_set chain ~dut)
    chain.Cml_cells.Chain.builder.Cml_cells.Builder.net ~freq ~tstop

let design_reference ?engine_options ?(proc = Cml_cells.Process.default) ~input ~dut ~final golden
    ~freq ~tstop =
  reference ?engine_options ~proc (design_probe_set ~input ~dut ~final) golden ~freq ~tstop

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
