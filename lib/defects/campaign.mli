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
  active_cone : int option;
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
    classifier keys on; the supply current is a {!Cone.monitor}'s.  [nominal] supplies the fault-free chain
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
  trajectory : Cone.reference;
      (** the dense run: what drives cones, guides full-netlist
          variants and gives probes outside a variant's netlist
          ({!Cone.samples}) *)
  unknowns : int;  (** unknowns the reference transient simulated *)
  active_cone : int option;
      (** [Some] active-cone unknowns when the transient ran on the
          active cone, [None] for the full netlist *)
  breakpoints : float array;  (** the golden breakpoint schedule, shared by every variant *)
}
(** A campaign's fault-free run: one dense transient, measured from
    its own rows (what probe observers would stream): probes through
    {!Cone.samples}, the supply current and boundary draw through a
    {!Cone.monitor} replayed over the rows.  It runs on the {e active
    cone} ({!Cone.active}: the fanout of the toggling inputs) when that
    passes the cone rule ({!Cone.selected}), on top of the full
    netlist's DC point: non-ideal boundary nets held at their DC
    values, probes outside the cone reading theirs, and the supply the
    full DC supply with the cone's DC share swapped for its transient
    current.  The full transient runs instead when the active cone
    fails the rule (the chain, a clocked design, several toggling
    inputs), when the cone run does not converge, or when a held
    boundary net delivers more than [proc.i_tail] (the
    [campaign.reference_fallbacks] counter counts those two).  The
    phase is traced as a [campaign.reference] span with the [unknowns]
    simulated and the [path] ([cone] or [full]). *)

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
    either way.  The run a variant is measured on is one
    {!Cml_spice.Transient.run} of its own sim, so [cmldft explain]
    re-simulates it step for step.

    Each variant runs on the rungs {!Cone.plan} gives it, in order,
    then on the full netlist.  A variant whose fanout cone has at most
    half the golden netlist's unknowns tries the cone's {e cut} at the
    healing depth ({!Cone.cut_depth}) when it is smaller, then the
    cone: each driven by the fault-free run (and warm-started from it),
    probes outside its simulated cells reading that run
    ({!Cone.samples}; resampled onto the rung's time axis when the
    other side of their pair is simulated), its [supply_current] the
    fault-free one with the rung's nominal share swapped for its own.
    A {!Cone.monitor} watches every accepted step.  The variant leaves a rung when the
    run does not converge, when a held boundary source delivers more
    than [proc.i_tail], or, on a cut, when a cut net strays from its
    fault-free wave by more than {!cut_epsilon}, at the DC start or any
    later step.  So healing is checked while the variant runs, never
    assumed.  The rungs depend on the design and the defect only; on
    the default 8-stage chain only stage-8 defects have a cone, and no
    cut (nothing lies downstream).

    The manifest records each variant's [unknowns] (of the netlist it
    was measured on); a variant that ran on a cone also records
    [fallback] (0 or 1) and, unless its run failed to converge,
    [boundary_draw] (A), and one that ran on a cut [cut] (its depth),
    [cut_abort] (0 or 1), [cut_deviation] (V: the worst cut-net
    deviation, or the one that aborted the cut; absent when the cut
    run did not converge), [boundary_draw] when it stayed there and,
    when the deviation aborted it, [cut_abort_at] (s).  The
    [campaign.cone_variants] / [campaign.cone_fallbacks] counters count
    the variants measured on a cone and those that left one,
    [campaign.cut_variants] / [campaign.cut_aborts] the same for cuts.

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
    and column ordering ({!Cml_spice.Engine.compile}).  The rungs of
    {!run} apply: on the c432 surrogate, the default DUT's cone is 430
    of 949 unknowns and its cut at depth 1 is 65, so its variants try
    the cut and re-run on the cone when they leave it. *)

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

val summary : t -> (string * int) list
(** Histogram of the observed fault classes, for reporting: counts of
    stuck / excessive-excursion / healed / delay-detectable /
    benign / failed. *)
