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
    task each).  Within a slice, the first completed variant of each
    unknown layout offers its symbolic LU analysis to the slice's
    later variants of that layout ({!Cml_spice.Engine.share_symbolic}).
    [batch = false] means slices of one defect through the same code.
    Every variant is exactly one
    {!Cml_spice.Transient.run} of its own sim, so [cmldft explain]
    re-simulates it step for step.

    A variant whose fanout cone ({!Cone}) has at most half the golden
    netlist's unknowns simulates only that cone, every net the cone
    reads from outside forced to its waveform in the fault-free run
    (warm-started from that run projected onto the cone).  Its
    probes outside the cone read the fault-free streams, and its
    [supply_current] is the fault-free one with the cone's nominal
    share replaced by the variant's own cone current.  The variant is
    re-run on the full netlist (a fallback) when the cone run does not
    converge, or when a boundary source on a non-ideal net delivers
    more than [proc.i_tail] at any accepted step.  The cone decision
    depends on the design and the defect only; on the default 8-stage
    chain it only applies to defects in stage 8.  The manifest records
    each variant's [unknowns]; a cone-routed variant also records
    [fallback] (0 or 1) and [boundary_draw] (A), and the
    [campaign.cone_variants] / [campaign.cone_fallbacks] counters
    count the variants measured on a cone and the fallbacks.

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
    healing histogram reads "clean".  On a sparse-sized design the
    slices' shared symbolic analysis means the campaign pays for one
    column ordering per layout per slice, not one per defect.  The
    cone rule of {!run} applies: on the c432 surrogate, the default
    DUT's cone is 430 of 949 unknowns, so its variants run on the
    cone. *)

val to_manifest : ?seed:int -> ?options:(string * string) list -> t -> Cml_telemetry.Manifest.t
(** The run manifest [?manifest] writes; exposed so callers can stamp
    their own options / seed and choose the path. *)

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
