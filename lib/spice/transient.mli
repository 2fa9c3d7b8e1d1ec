(** Transient analysis: trapezoidal integration with a backward-Euler
    start-up step after DC and after every source breakpoint,
    Newton-failure step halving, and an optional predictor-based
    local-truncation-error control. *)

type config = {
  tstop : float;  (** end time (s) *)
  max_step : float;  (** largest accepted step *)
  min_step : float;  (** below this a Newton failure is fatal *)
  lte_control : bool;  (** enable predictor-corrector step control *)
  record_every : int;
      (** keep one sample out of this many (1 = all; 0 = record
          nothing: [times]/[data] stay empty and measurements come
          from the streaming observers alone) *)
}

val config : ?max_step:float -> ?min_step:float -> ?lte_control:bool -> ?record_every:int ->
  tstop:float -> unit -> config
(** Defaults: [max_step = tstop /. 200.], [min_step = max_step /. 1e6],
    [lte_control = true], [record_every = 1].  The tolerances of the
    LTE acceptance test come from {!Engine.options}
    ([lte_reltol_factor], [lte_abstol]). *)

val lte_ok : Engine.options -> float array -> float array -> bool
(** [lte_ok opts xpred x]: the step-control acceptance test — every
    entry of the corrector [x] lies within [lte_abstol + lte_reltol_factor
    * reltol * max(|xpred|, |x|)] of the linear prediction [xpred].
    [false] when any entry of either vector is NaN or infinite. *)

type stats = {
  accepted_steps : int;  (** committed time steps *)
  rejected_steps : int;
      (** steps retried after a Newton failure or an LTE rejection *)
  lte_rejections : int;
      (** of [rejected_steps], how many were LTE rejections (the
          Newton solve converged but the predictor band failed) *)
  newton_iters : int;  (** Newton iterations spent in this run *)
  device_loads : int;  (** junction-device load opportunities *)
  bypassed_loads : int;
      (** of [device_loads], how many replayed cached stamps
          ({!Engine.options.bypass}) *)
  guided_seeds : int;
      (** Newton solves rescued by the [?guide] trajectory: the warm DC
          start, plus accepted steps whose own-point seed diverged and
          whose guide-seeded retry converged (0 when no guide was
          given).  Retries of a rejected instant do not inflate this
          count. *)
  cold_fallbacks : int;
      (** seeds that diverged and triggered the next fallback: steps
          whose own-point seed failed (a guide-seeded retry follows
          when a guide is present), plus a guided DC start that fell
          back to the homotopy ladder *)
}

type result = {
  times : float array;
  data : float array array;  (** [data.(k)] is the solution vector at [times.(k)] *)
  sim : Engine.sim;
  stats : stats;
}

type observers
(** A streaming probe set: selected unknowns are sampled on every
    {e accepted} step into bounded per-probe buffers, without
    materialising the dense [times]/[data] matrix.  Because observers
    see every accepted step, measurements taken from probes are immune
    to [record_every] downsampling: with [record_every > 1] the dense
    matrix can alias narrow extrema (e.g. the excursion minimum a
    defect campaign classifies on), while the streamed samples cannot.
    Campaigns therefore measure from probes and keep only a thinned
    dense trajectory. *)

val observers :
  ?on_step:(float -> float array -> unit) -> (string * int) list -> observers
(** [observers probes] builds a probe set from [(name, unknown index)]
    pairs — node indices from {!Engine.node_unknown} (ground, [-1],
    streams zeros) or branch indices from {!Engine.branch_unknown}.
    [on_step] is called after the probes are sampled at each accepted
    step with the time and the full solution vector (do not retain the
    vector: it is reused by the step loop).
    @raise Invalid_argument on an index below [-1]. *)

val observe : observers option -> float -> float array -> unit
(** The step-loop dispatch: sample every probe (and run [on_step]) at
    an accepted step, or return immediately when [None].  Exposed so
    the overhead benchmark can measure the observers-disabled cost of
    the hook — callers of {!run} never need it. *)

val probe_names : observers -> string list

val probe_length : observers -> int
(** Samples recorded so far (accepted steps observed, including the
    initial point). *)

val probe_samples : observers -> string -> float array * float array
(** [(times, values)] streamed by the named probe; both arrays have
    {!probe_length} elements.
    @raise Not_found when no probe has that name. *)

val probe_list : observers -> (string * float array * float array) list
(** All probes as [(name, times, values)], in declaration order. *)

val collect_breakpoints : Netlist.t -> tstop:float -> float array
(** Sorted source-waveform breakpoints up to and including [tstop].
    Precompute once and pass as [?breakpoints] when running many
    variants of the same stimulus (defect injection adds only
    resistors and capacitors, so the golden schedule stays valid). *)

val run :
  ?x0:float array ->
  ?guide:result ->
  ?breakpoints:float array ->
  ?observers:observers ->
  Engine.sim ->
  Netlist.t ->
  config ->
  result
(** Run a transient from the DC operating point at [t = 0] (or from
    [x0] when given).  The netlist is only used to collect source
    breakpoints; it must be the one the [sim] was compiled from.

    [guide] warm-starts the run from a previously computed trajectory
    of a layout-compatible sim (same unknown count — checked, silently
    ignored otherwise): the DC solve is seeded from the guide's first
    point, and a step whose own-point Newton seed diverges is retried
    from the guide sample nearest in time before the usual step
    halving.  The previous accepted point stays the primary per-step
    seed — it keeps the junction voltages inside the device-bypass
    window, which a foreign (nominal) seed would evict every step.
    Results are bit-identical in structure to an unguided run; only
    Newton iteration counts change.

    [breakpoints] overrides breakpoint collection with a precomputed
    schedule from {!collect_breakpoints}.

    [observers] streams selected unknowns at every accepted step —
    including the initial point and the steps a [record_every > 1]
    configuration drops from the dense matrix.  On a run with
    [record_every = 1] the streamed samples are bit-identical to the
    corresponding rows of [data]; with [record_every = k] the dense
    matrix holds every k-th streamed sample.  Without observers the
    per-step cost is a single branch (gated alongside the telemetry
    hooks in [make telemetry-overhead]).

    When the sim carries an {!Introspect} recorder
    ({!Engine.set_introspect}), the step loop additionally records the
    dt timeline with cause tags (accept / breakpoint restart /
    guide rescue / LTE reject / Newton reject) and, per LTE
    rejection, which node forced the step down and the rejection
    cascade depth.  Recording never changes results: the accept
    decision stays with the plain LTE band test, and the blame scan
    only reads.  Without a recorder each hook is one load and one
    branch (gated in [make telemetry-overhead]).

    @raise Engine.No_convergence when a step fails at [min_step]. *)

type lane_result =
  | Lane_done of result  (** the lane ran to [tstop] *)
  | Lane_failed of string
      (** the lane's Newton solve failed at [min_step] (the
          {!Engine.No_convergence} message) or its DC start diverged *)
  | Lane_incompatible
      (** the lane's unknown count differs from lane 0's, so it cannot
          share lane 0's symbolic analysis — it was not run *)

val run_batch :
  ?guide:result ->
  ?breakpoints:float array ->
  (Engine.sim * observers option) array ->
  Netlist.t ->
  config ->
  lane_result array
(** Run every lane (a compiled variant of one stimulus, plus its probe
    set) through {!run}, one after the other in lane order.  Every lane
    after the first completed one is offered that lane's symbolic
    analysis ({!Engine.share_symbolic}), so the batch pays for one
    column ordering and pattern analysis.  Each lane is therefore
    exactly a scalar {!run} of its sim: a lane whose symbolic analysis is adopted may pick other
    pivots than a fresh factorization would, nothing else differs.  A
    lane that diverges fails alone ([Lane_failed]).

    Lane 0's unknown count fixes the batch width; lanes with a
    different layout are reported [Lane_incompatible] without running.
    [guide] seeds each compatible lane exactly like {!run} (and is
    ignored, per lane, on a layout mismatch).  Results are returned in
    lane order.

    Introspection is per lane for free: each lane owns its sim, so
    attaching a recorder per sim ({!Engine.set_introspect}) yields
    per-lane Newton/LTE/dt records — a [Lane_failed] lane is
    explainable from its recorder alone. *)

val node_trace : result -> Netlist.node -> float array
(** Voltage samples of a node, aligned with [times]. *)

val diff_trace : result -> Netlist.node -> Netlist.node -> float array
(** Differential voltage [v a - v b] over time. *)
