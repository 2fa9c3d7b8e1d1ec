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
  reference_cone : int option;
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

(* The supply current of a run of (a faulty copy of) a cone or cut
   netlist, summed at every accepted step: the signed sum of its [vdd]
   branch and every held boundary source, which delivers what the
   net's real driver would draw from the rail.  One stream, not one
   per held source (n36's cone holds 58). *)
type supply = { branches : int array; times : Cml_numerics.Fbuf.t; total : Cml_numerics.Fbuf.t }

let supply_meter d sim =
  {
    branches =
      Array.of_list
        (List.map snd (supply_probe sim)
        @ List.map (E.branch_unknown sim) (Cone.held_sources d));
    times = Cml_numerics.Fbuf.create ();
    total = Cml_numerics.Fbuf.create ();
  }

let record_supply s t x =
  let sum = ref 0.0 in
  for k = 0 to Array.length s.branches - 1 do
    sum := !sum +. x.(s.branches.(k))
  done;
  Cml_numerics.Fbuf.push s.times t;
  Cml_numerics.Fbuf.push s.total !sum

(* @raise Not_found for a run with no supply branch *)
let supply_samples s =
  if s.branches = [||] then raise Not_found
  else (Cml_numerics.Fbuf.to_array s.times, Cml_numerics.Fbuf.to_array s.total)

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

let simulate ?x0 ?guide ?breakpoints ?(record_every = 1) sim obs net ~tstop =
  T.run ?x0 ?guide ?breakpoints ~observers:obs sim net
    (T.config ~tstop ~max_step:10e-12 ~record_every ())

(* Simulate one netlist streaming the probe set, and measure it. *)
let measure_full ?engine_options ?guide ?breakpoints ?record_every ?nominal ps net ~freq ~tstop =
  let sim = E.compile ?options:engine_options net in
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

(* Raised by the cut meter from the [on_step] observer with the time
   and the deviation found; caught around the cut run only. *)
exception Cut_abort of float * float

type reference = {
  measurement : measurement;
  nominal : float * float;
  trajectory : Cone.reference;
  unknowns : int;
  cut : int option;
  samples : string -> float array * float array;
  breakpoints : float array;
}

let vdd_current sim x =
  match E.branch_unknown sim "vdd" with br -> Float.abs x.(br) | exception Not_found -> 0.0

(* The fault-free run every variant is classified against, driven
   from and guided by.  When the active cone (the fanout of the
   toggling inputs) passes the cone rule, only it runs a transient, on
   top of the full netlist's DC operating point: every net outside it
   holds its DC value.  The full transient runs instead when the cone
   is too large, when the cut run does not converge, or when a held
   boundary net must deliver more than a tail current. *)
let reference ?engine_options ~proc ps golden ~freq ~tstop =
  let tok = Cml_telemetry.Trace.start () in
  (* the stimulus is shared by every variant, and defect injection
     only ever adds resistors and capacitors, so the fault-free
     breakpoint schedule is valid for all of them — cones included,
     whose PWL boundary knots must not become breakpoints *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  (* the streams outlive the run: keep them at their exact lengths *)
  let lookup streams name =
    match List.find_opt (fun (n, _, _) -> n = name) streams with
    | Some (_, times, values) -> (times, values)
    | None -> raise Not_found
  in
  let full () =
    let measurement, r, nominal, obs =
      measure_full ?engine_options ~breakpoints ps golden ~freq ~tstop
    in
    {
      measurement;
      nominal;
      trajectory = Cone.of_run golden r;
      unknowns = E.unknown_count r.T.sim;
      cut = None;
      samples = lookup (T.probe_list obs);
      breakpoints;
    }
  in
  let cut cone =
    let gsim = E.compile ?options:engine_options golden in
    let dc = E.dc_operating_point ~time:0.0 gsim in
    let op = Cone.operating_point golden gsim dc in
    let d = Cone.drive cone ~reference:op in
    let net = Cone.netlist d in
    let sim = E.compile ?options:engine_options net in
    let draw = Cone.meter d sim in
    let on_cut, off_cut =
      List.partition_map
        (fun (name, nd) ->
          match N.find_node net (N.node_name golden nd) with
          | Some c -> Left (name, E.node_unknown c)
          | None -> Right (name, dc.(E.node_unknown nd)))
        (probe_nodes ps)
    in
    let supply = supply_meter d sim in
    let on_step t x =
      Cone.record draw t x;
      record_supply supply t x
    in
    let obs = T.observers ~on_step on_cut in
    let r = simulate ~x0:(Cone.start d) ~breakpoints sim obs net ~tstop in
    if not (Cone.peak draw <= proc.Cml_cells.Process.i_tail) then None
    else begin
      let times, total = supply_samples supply in
      let samples =
        lookup
          (("i(vdd)", times, total)
          :: List.map (fun (name, v) -> (name, times, Array.map (fun _ -> v) times)) off_cut
          @ List.filter (fun (name, _, _) -> List.mem_assoc name on_cut) (T.probe_list obs))
      in
      let m, nominal = analyze ps samples ~freq ~tstop in
      (* the full netlist's DC supply with the cone's DC share swapped
         for its transient current *)
      let supply_current = vdd_current gsim dc -. Cone.nominal_supply d +. m.supply_current in
      Some
        {
          measurement = { m with supply_current };
          nominal;
          trajectory = Cone.with_run op net r;
          unknowns = E.unknown_count sim;
          cut = Some (Cone.unknowns cone);
          samples;
          breakpoints;
        }
    end
  in
  let fallback () =
    Cml_telemetry.Metrics.incr m_reference_fallbacks;
    full ()
  in
  let r =
    match Cone.active golden with
    | Some cone when Cone.selected cone -> (
        match cut cone with
        | Some r -> r
        | None -> fallback ()
        | exception E.No_convergence _ -> fallback ())
    | Some _ | None -> full ()
  in
  Cml_telemetry.Trace.finish ~cat:"campaign"
    ~args:
      [
        ("unknowns", Cml_telemetry.Trace.I r.unknowns);
        ("path", Cml_telemetry.Trace.S (if r.cut = None then "full" else "cone"));
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
  let ref_run = reference ?engine_options ~proc ps golden ~freq ~tstop in
  let { measurement = reference; nominal; trajectory; breakpoints; cut; _ } = ref_run in
  (* the reference seeds every variant's Newton solves; [T.run]
     ignores it for variants whose defect changed the unknown layout
     (an open adds a node) and falls back to cold seeding whenever the
     variant diverges from the nominal path *)
  let guide () = if warm_start then Some (Cone.full_guide trajectory) else None in
  (* A variant whose fanout cone is at most half the design simulates
     only that cone ({!Cone}), its boundary forced to the nominal
     waveforms, and tries the cone's cut at the healing depth first.
     Probes outside the simulated cells read the reference streams,
     and the supply current is the reference's with the cone's (or
     cut's) nominal share swapped for the variant's own. *)
  let cone_of = Cone.plan trajectory defects in
  (* kept only when some variant takes a cone *)
  let reference_samples =
    if List.exists (fun d -> Option.is_some (cone_of d)) defects then ref_run.samples
    else fun _ -> raise Not_found
  in
  let driven_probes d =
    List.filter_map
      (fun (name, nd) ->
        Option.map (fun c -> (name, E.node_unknown c)) (Cone.node d (N.node_name golden nd)))
      (probe_nodes ps)
  in
  let eps = cut_epsilon proc in
  (* One run of a faulty copy of a cone or cut netlist.  The cut meter
     compares every cut net (a cone has none) with its reference wave
     at the DC start and at every accepted step; the first deviation
     beyond [eps] aborts the run. *)
  let on_driven d faulty =
    let sim = E.compile ?options:engine_options faulty in
    let draw = Cone.meter d sim in
    let supply = supply_meter d sim in
    let watched =
      Array.of_list (List.map (fun (nd, w) -> (E.node_unknown nd, w)) (Cone.watched d))
    in
    let worst = [| 0.0 |] in
    let on_step t x =
      Cone.record draw t x;
      record_supply supply t x;
      Array.iter
        (fun (u, w) ->
          let dv = Float.abs (x.(u) -. Cml_spice.Waveform.value w t) in
          if not (dv <= eps) then raise (Cut_abort (t, dv));
          if dv > worst.(0) then worst.(0) <- dv)
        watched
    in
    let obs = T.observers ~on_step (driven_probes d) in
    let guide = if warm_start then Cone.guide d else None in
    let r = simulate ?guide ~breakpoints ~record_every:0 sim obs faulty ~tstop in
    let samples name =
      if name = "i(vdd)" then supply_samples supply
      else
        match T.probe_samples obs name with
        | s -> s
        | exception Not_found -> reference_samples name
    in
    let m, _ = analyze ps ~nominal samples ~freq ~tstop in
    let supply_current = reference.supply_current -. Cone.nominal_supply d +. m.supply_current in
    ({ m with supply_current }, r, Cone.peak draw, worst)
  in
  let options =
    options
    @ [
        ("freq", Printf.sprintf "%g" freq);
        ("tstop", Printf.sprintf "%g" tstop);
        ("warm_start", string_of_bool warm_start);
        ("batch", string_of_bool batch);
        ("defects", string_of_int (List.length defects));
        ("reference", reference_option cut);
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
        | m, r, _, _ -> measured m r
        | exception E.No_convergence msg -> (Failed msg, None))
  in
  let inject d defect =
    match Inject.apply (Cone.netlist d) defect with
    | faulty -> Some faulty
    | exception (Not_found | Invalid_argument _) -> None
  in
  (* the cone is abandoned for the full netlist when it does not
     converge, or when a boundary source on a non-ideal net delivers
     more than a tail current: the defect then reaches back into a
     driver the cone does not simulate *)
  let on_cone defect cone =
    let fallback cone_metrics =
      Cml_telemetry.Metrics.incr m_cone_fallbacks;
      (full defect, ("fallback", 1.0) :: cone_metrics)
    in
    match inject cone defect with
    | None -> (full defect, [])
    | Some faulty -> (
        match on_driven cone faulty with
        | m, r, draw, _ when draw <= proc.Cml_cells.Process.i_tail ->
            Cml_telemetry.Metrics.incr m_cone_variants;
            (measured m r, [ ("fallback", 0.0); ("boundary_draw", draw) ])
        | _, _, draw, _ -> fallback [ ("boundary_draw", draw) ]
        | exception E.No_convergence _ -> fallback [])
  in
  (* the cut is abandoned for the cone when a cut net leaves the
     reference by more than [eps], when the cut does not converge, or
     when a held source delivers more than a tail current *)
  let on_cut defect cone cut faulty =
    let depth = ("cut", float_of_int Cone.cut_depth) in
    let abort cut_metrics =
      Cml_telemetry.Metrics.incr m_cut_aborts;
      let result, cone_metrics = on_cone defect cone in
      (result, (depth :: ("cut_abort", 1.0) :: cut_metrics) @ cone_metrics)
    in
    match on_driven cut faulty with
    | m, r, draw, worst when draw <= proc.Cml_cells.Process.i_tail ->
        Cml_telemetry.Metrics.incr m_cut_variants;
        ( measured m r,
          [ depth; ("cut_abort", 0.0); ("cut_deviation", worst.(0)); ("boundary_draw", draw) ] )
    | _, _, _, worst -> abort [ ("cut_deviation", worst.(0)) ]
    | exception Cut_abort (t, dv) -> abort [ ("cut_deviation", dv); ("cut_abort_at", t) ]
    | exception E.No_convergence _ -> abort []
  in
  let variant defect =
    let (outcome, run), metrics =
      match cone_of defect with
      | None -> (full defect, [])
      | Some cone -> (
          match Cone.cut_of cone with
          | Some cut -> (
              match inject cut defect with
              | Some faulty -> on_cut defect cone cut faulty
              | None -> on_cone defect cone)
          | None -> on_cone defect cone)
    in
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
      ~options ~name:Defect.describe ~variant (Array.of_list defects)
  in
  let t =
    {
      reference;
      reference_cone = cut;
      entries = Array.to_list v.results;
      variants = v.variants;
      metrics = v.metrics;
      utilization = v.utilization;
      wall_s = v.wall_s;
    }
  in
  Option.iter (fun path -> Cml_telemetry.Manifest.write ~path (to_manifest ~options t)) manifest;
  t

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
