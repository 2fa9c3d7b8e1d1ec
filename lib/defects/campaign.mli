(** Defect-injection campaigns on the paper's buffer-chain test
    circuit (Figure 3): simulate every candidate defect, measure the
    device-under-test and chain outputs, and classify the fault
    behaviour.  This reproduces the section-5 observations — many
    defects map into abnormal output excursions rather than stuck-at
    faults, and excursions heal after a few stages. *)

type measurement = {
  dut_vlow : float;  (** lowest voltage at either DUT output *)
  dut_vhigh : float;  (** highest voltage at either DUT output *)
  dut_swing : float;  (** single-ended swing at the DUT true output *)
  final_vlow : float;
  final_vhigh : float;
  final_swing : float;
  final_delay : float option;  (** input-to-final-output delay at actual crossings *)
  supply_current : float;  (** mean magnitude of the rail supply current (A) *)
  degraded_at : int option;
      (** 1-based stage of the first out-of-tolerance waveform
          ({!Cml_wave.Health.profile}); [None] when every stage is
          within tolerance of the nominal levels, or when no nominal
          levels were supplied (the reference run itself) *)
  healing_depth : int option;
      (** stages the abnormal excursion needs to recover — the paper's
          section-5 healing observation, quantified; [None] when
          nothing is degraded or the degradation persists to the chain
          output *)
}

type flags = {
  stuck : bool;  (** chain output no longer toggles: classic stuck-at testable *)
  excessive_excursion : bool;
      (** DUT output goes well below the nominal low level — the fault
          class the paper's detectors target *)
  reduced_swing : bool;  (** DUT swing collapsed but the chain still toggles *)
  delay_detectable : bool;  (** chain delay shifted by more than 20% *)
  iddq_detectable : bool;
      (** supply current elevated by more than 15% over the fault-free
          chain — the Iddq fault class of the paper's section 1 *)
  healed : bool;  (** degraded at the DUT yet nominal at the chain output *)
}

type outcome = Measured of measurement * flags | Failed of string

type entry = { defect : Defect.t; outcome : outcome }

type t = {
  reference : measurement;  (** fault-free chain measurement *)
  reference_cone : int option;
      (** unknowns of the active cone the reference transient ran on
          ({!reference}); [None] when it ran on the full netlist *)
  entries : entry list;
  variants : Cml_telemetry.Manifest.variant list;
      (** per-variant telemetry, aligned with [entries]: [v_seconds]
          is the variant's own wall time (injection, compile,
          transient, probe analysis) and [v_metrics] its measurement
          and transient stats; kept outside [entry] so parallel and
          sequential runs produce structurally equal entries *)
  metrics : Cml_telemetry.Metrics.snapshot;
      (** metrics-registry movement over this campaign *)
  utilization : Cml_telemetry.Events.domain_util list;
      (** per-domain busy/idle attribution (busy seconds, items,
          longest stall, busy ratio against [wall_s]) over the variant
          phase — the end-of-run utilization table *)
  wall_s : float;  (** wall clock of the variant phase *)
}

val measure_chain :
  ?engine_options:Cml_spice.Engine.options ->
  ?guide:Cml_spice.Transient.result ->
  ?breakpoints:float array ->
  ?record_every:int ->
  ?nominal:float * float ->
  Cml_cells.Chain.t -> Cml_spice.Netlist.t -> freq:float -> tstop:float -> dut:int ->
  measurement
(** Simulate the given (possibly faulty) netlist of a chain and
    extract the measurement.  [engine_options] compiles the sim with
    non-default solver options ({!run}'s [max_iter] stress knob);
    [guide] and [breakpoints] are passed to
    {!Cml_spice.Transient.run}: a campaign measures the fault-free
    chain once and warm-starts every variant from its trajectory.

    All measurements are taken from streaming observers
    ({!Cml_spice.Transient.observers}), which see every accepted step
    — so [record_every > 1] (default 1) merely thins the retained
    dense trajectory without aliasing the excursion extremes the
    classifier keys on.  [nominal] supplies the fault-free chain
    output's plateau levels; when present, the per-stage healing
    profile ({!Cml_wave.Health.profile}) fills [degraded_at] /
    [healing_depth], otherwise both are [None].
    @raise Engine.No_convergence on solver failure (callers of {!run}
    get it folded into [Failed]). *)

val measure_design :
  ?engine_options:Cml_spice.Engine.options ->
  ?guide:Cml_spice.Transient.result ->
  ?breakpoints:float array ->
  ?record_every:int ->
  input:Cml_cells.Builder.diff ->
  dut:Cml_cells.Builder.diff ->
  final:Cml_cells.Builder.diff ->
  Cml_spice.Netlist.t -> freq:float -> tstop:float ->
  measurement
(** {!measure_chain} for a compiled design, probed as {!run_design}
    probes it: the whole (possibly faulty) netlist is simulated, so
    this is the full-netlist measurement a cone variant approximates.
    There is no healing profile.
    @raise Engine.No_convergence on solver failure. *)

type reference = {
  measurement : measurement;  (** what variants are classified against *)
  nominal : float * float;  (** the final output's plateau levels *)
  trajectory : Cone.reference;  (** what drives cones and guides full-netlist variants *)
  unknowns : int;  (** unknowns the reference transient simulated *)
  cut : int option;  (** [Some] active-cone unknowns for a cut reference, [None] for the full one *)
  samples : string -> float array * float array;
      (** the streamed probes by name (["in.p"], ["<pair>.n"],
          ["i(vdd)"]); a probe outside a cut reads its DC value
          @raise Not_found for another name *)
  breakpoints : float array;  (** the golden breakpoint schedule, shared by every variant *)
}
(** A campaign's fault-free run.  It is {e cut} when the {e active
    cone} ({!Cone.active}: the fanout of the inputs whose sources
    toggle) passes the cone rule ({!Cone.selected}): one DC operating
    point of the full netlist, then a transient of the active cone
    alone, its non-ideal boundary nets held at their DC values and its
    ideal ones driven by their own sources.  Probes in the cone read
    that run; the supply current is the full DC supply with the
    cone's DC share swapped for its transient current.  The full
    transient runs instead when the active cone fails the rule (the
    chain, a clocked design, several toggling inputs), when the cut
    run does not converge, or when a held non-ideal boundary net
    delivers more than [proc.i_tail] at an accepted step (the
    [campaign.reference_fallbacks] counter counts those two).  The
    choice depends on the netlist only.  The phase is traced as a
    [campaign.reference] span with the [unknowns] simulated and the
    [path] ([cone] or [full]). *)

val chain_reference :
  ?engine_options:Cml_spice.Engine.options ->
  ?proc:Cml_cells.Process.t ->
  Cml_cells.Chain.t -> freq:float -> tstop:float -> dut:int ->
  reference
(** The reference {!run} builds for a chain campaign (every stage
    toggles, so always the full one). *)

val design_reference :
  ?engine_options:Cml_spice.Engine.options ->
  ?proc:Cml_cells.Process.t ->
  input:Cml_cells.Builder.diff ->
  dut:Cml_cells.Builder.diff ->
  final:Cml_cells.Builder.diff ->
  Cml_spice.Netlist.t -> freq:float -> tstop:float ->
  reference
(** The reference {!run_design} builds for a compiled design. *)

val run :
  ?proc:Cml_cells.Process.t ->
  ?freq:float ->
  ?stages:int ->
  ?dut:int ->
  ?tstop:float ->
  ?jobs:int ->
  ?preflight:bool ->
  ?warm_start:bool ->
  ?batch:bool ->
  ?max_iter:int ->
  ?manifest:string ->
  defects:Defect.t list ->
  unit ->
  t
(** Full campaign at [freq] (default 100 MHz) on a chain of [stages]
    (default 8) with the defect in stage [dut] (default 3).  The
    defect list normally comes from {!Sites.enumerate} on the DUT
    instance.  Defects are simulated in parallel over [jobs] domains
    (default: [CML_DFT_JOBS] or cores - 1; see
    {!Cml_runtime.Pool.default_jobs}); results are deterministic and
    identical to a [jobs = 1] run.

    Unless [preflight] is [false] (or [CML_DFT_NO_PREFLIGHT] is set),
    the fault-free netlist is linted first and
    [Cml_analysis.Lint.Preflight_failed] is raised — with the rule
    citations — instead of starting a doomed simulation batch.

    Unless [warm_start] is [false], the fault-free chain is simulated
    once and its trajectory warm-starts every defect variant (DC from
    the nominal operating point, each step's Newton from the nearest
    nominal snapshot); classification results are unaffected — a
    variant that rejects the nominal seed falls back to cold
    seeding.

    Variants run in contiguous slices of at most 16 defects (one pool
    task each); [batch = false] means slices of one defect.  The
    slicing is a pure scheduling choice: results are bit-identical
    either way.  Every variant is exactly one
    {!Cml_spice.Transient.run} of its own sim, so [cmldft explain]
    re-simulates it step for step.

    A variant whose fanout cone ({!Cone}) has at most half the golden
    netlist's unknowns simulates only that cone, every net the cone
    reads from outside forced to its waveform in the fault-free run
    (warm-started from that run projected onto the cone).  Its
    probes outside the cone read the fault-free streams, and its
    [supply_current] is the fault-free one with the cone's nominal
    share replaced by the variant's own cone current; both currents
    count the [vdd] branch plus every held boundary source
    ({!Cone.held_sources}).  The variant is re-run on the full netlist
    (a fallback) when the cone run does not converge, or when a
    boundary source on a non-ideal net delivers more than
    [proc.i_tail] at any accepted step.  The cone decision depends on
    the design and the defect only; on the default 8-stage chain it
    only applies to defects in stage 8.

    A cone variant first runs on the cone's {e cut} at the healing
    depth ({!Cone.cut_of}, depth {!Cone.cut_depth}) when that cut has
    fewer unknowns than the cone: the cells within one fanout level of
    the attacked cells, plus a fringe of their readers whose outputs
    are forced to the fault-free waveforms.  A cut meter compares
    every cut net with its fault-free wave at the DC start and at
    every accepted step; the first deviation beyond {!cut_epsilon}
    aborts the cut run and the variant re-runs on the cone (and from
    there, as above, on the full netlist).  A cut run that does not
    converge, or whose held boundary sources deliver more than
    [proc.i_tail], is aborted the same way.  So healing is checked
    while the variant runs, never assumed: a variant whose DC point
    already differs one level on aborts before its transient starts,
    one stuck at its DC state at the first edge that should reach the
    cut nets.  Probes past the cut read the
    fault-free streams, and the supply is reconstructed as for a cone
    from the cut's share.  The chain's stage-8 cone has nothing
    downstream, so its cut is the cone itself and no chain variant
    takes one.

    The manifest records each variant's [unknowns] (of the netlist it
    was measured on); a cone-routed variant also records [fallback]
    (0 or 1) and [boundary_draw] (A), and a cut-routed one [cut] (its
    depth), [cut_abort] (0 or 1), [cut_deviation] (V: the worst cut-net
    deviation, or the one that aborted the cut; absent when the cut run
    did not converge) and, when the meter aborted it, [cut_abort_at]
    (s).  The [campaign.cone_variants] /
    [campaign.cone_fallbacks] counters count the variants measured on
    a cone and the fallbacks, [campaign.cut_variants] /
    [campaign.cut_aborts] those measured on a cut and the aborts.

    A variant that raises any other exception fails alone, as
    [Failed "internal: <exception>"]; the run and its manifest
    complete.

    [max_iter] caps Newton iterations per solve (default: the engine's
    100) for every compiled sim of the run, reference included — a
    stress knob that makes marginal defects fail solves visibly for
    the introspection pipeline.  When given it is recorded in the run
    options (key ["max_iter"]), so [cmldft explain] re-simulates under
    the same cap.

    [manifest] writes a {!Cml_telemetry.Manifest} JSON document to the
    given path after the run (options, per-variant classification and
    solver metrics, registry delta, span summary). *)

val run_design :
  ?proc:Cml_cells.Process.t ->
  ?freq:float ->
  ?tstop:float ->
  ?jobs:int ->
  ?preflight:bool ->
  ?warm_start:bool ->
  ?batch:bool ->
  ?max_iter:int ->
  ?manifest:string ->
  ?options:(string * string) list ->
  golden:Cml_spice.Netlist.t ->
  input:Cml_cells.Builder.diff ->
  dut:Cml_cells.Builder.diff ->
  final:Cml_cells.Builder.diff ->
  defects:Defect.t list ->
  unit ->
  t
(** Campaign on an arbitrary compiled CML design — typically a
    [.bench] circuit compiled by {!Cml_cells.Compile} — instead of
    the built-in buffer chain.  [input] is the toggling stimulus
    pair (delay reference), [dut] the attacked cell's output pair
    and [final] the primary output whose swing decides the stuck-at
    class.  Semantics of [warm_start], [batch], [jobs], [preflight],
    [max_iter] and [manifest] match {!run}; [options] prepends caller context
    (e.g. the bench path) to the manifest options.  There is no
    stage chain, so measurements carry no healing profile
    ([degraded_at] and [healing_depth] are [None]) and the manifest's
    healing histogram reads "clean".  Variants of one topology (the
    same site at another pipe resistance) share one compiled layout
    and column ordering ({!Cml_spice.Engine.compile}).  The cone
    and cut rules of {!run} apply: on the c432 surrogate, the default
    DUT's cone is 430 of 949 unknowns and its cut at depth 1 is 65, so
    its variants try the cut and re-run on the cone when it aborts. *)

val to_manifest : ?seed:int -> ?options:(string * string) list -> t -> Cml_telemetry.Manifest.t
(** The run manifest [?manifest] writes; exposed so callers can stamp
    their own options / seed and choose the path. *)

val cut_epsilon : Cml_cells.Process.t -> float
(** How far (V) a cut net may stray from its reference wave before a
    cut variant re-runs on its cone ({!run}): [swing /. 25.], 10 mV at
    the default process. *)

val classify :
  proc:Cml_cells.Process.t -> reference:measurement -> measurement -> flags

val flag_labels : flags -> string list
(** The classification labels that are set, using the same vocabulary
    as {!summary} and the run manifest ("stuck-at",
    "excessive-excursion", ...); the diagnosis pipeline re-uses these
    to describe a flagged entry. *)

val healing_histogram : entry list -> (string * int) list
(** Healing-depth histogram over the measured entries: "clean" (never
    degraded), "depth=N" (recovered after N stages), "unhealed"
    (degradation persists to the chain output).  Failed entries are
    skipped.  This is the [healing] section {!to_manifest} embeds. *)

val summary : t -> (string * int) list
(** Histogram of the observed fault classes, for reporting: counts of
    stuck / excessive-excursion / healed / delay-detectable /
    benign / failed. *)
