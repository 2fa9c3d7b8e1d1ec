(** Simulation harnesses behind the paper's detector figures: a
    monitored buffer in a short chain, with an optional pipe defect,
    producing the detector response waveform and its metrics
    (Figures 7, 8, 10) and the detectable-amplitude characterisation
    (the 0.57 V / 0.35 V claims).

    Every harness lints the netlist it builds before simulating
    (see {!Cml_analysis.Lint.preflight_netlist}); pass
    [~preflight:false] — or set [CML_DFT_NO_PREFLIGHT] — to simulate
    rule-breaking netlists on purpose. *)

type variant =
  | V1 of Detector.config
  | V2 of { cfg : Detector.config; vtest : float }

type response = {
  vout : Cml_wave.Wave.t;  (** detector output *)
  out_p : Cml_wave.Wave.t;  (** monitored gate outputs *)
  out_n : Cml_wave.Wave.t;
  tstability : float option;  (** first-minimum time of vout (paper 6.1) *)
  t_settle : float option;
      (** robust settling time: 95% of the total vout excursion *)
  vmax : float;  (** ripple maximum after stability *)
  excursion : float;  (** how far below the nominal low the gate output goes *)
  vout_drop : float;  (** rail minus the stabilised vout *)
}

val detector_response :
  ?proc:Cml_cells.Process.t ->
  ?stages:int ->
  ?dut:int ->
  ?max_step:float ->
  ?preflight:bool ->
  ?guide:Cml_spice.Transient.result ->
  variant:variant ->
  freq:float ->
  pipe:float option ->
  tstop:float ->
  unit ->
  response
(** Drive a [stages]-buffer chain (default 3, monitored stage 2) at
    [freq]; when [pipe] is given, that C-E pipe resistance is placed
    on the monitored stage's current-source transistor.  [guide]
    warm-starts the transient from a layout-compatible trajectory
    (see {!Cml_spice.Transient.run}). *)

type threshold_row = {
  pipe_r : float;
  amplitude : float;  (** excursion produced by this pipe *)
  drop : float;  (** detector output drop it causes *)
  detected : bool;
}

val amplitude_thresholds :
  ?proc:Cml_cells.Process.t ->
  ?detect_drop:float ->
  ?jobs:int ->
  ?preflight:bool ->
  variant:variant ->
  freq:float ->
  pipe_values:float list ->
  tstop:float ->
  unit ->
  threshold_row list * float option
(** Characterise detection across pipe severities; the second result
    is the smallest excursion amplitude that was detected (the
    paper's 0.57 V for variant 1, 0.35 V for variant 2).
    [detect_drop] is the vout drop counted as a detection (default
    0.15 V, comparable to the variant-3 comparator threshold).
    Rows run in parallel over [jobs] domains.  The fault-free
    monitored chain is simulated once and its trajectory seeds every
    row's Newton solves. *)

val swing_vs_frequency :
  ?proc:Cml_cells.Process.t ->
  ?jobs:int ->
  ?preflight:bool ->
  pipe:float option ->
  freqs:float list ->
  unit ->
  (float * float * float) list
(** Figure 5: [(freq, vlow, vhigh)] of the monitored gate output for
    one pipe value across stimulus frequencies; one parallel task per
    frequency. *)

type hysteresis = {
  sweep : (float * float * float) list;
      (** [(vdrive, vfb, flag)] along the down-then-up continuation sweep *)
  switch_down : float option;  (** drive voltage of the good-to-fault flip *)
  switch_up : float option;  (** drive voltage of the fault-to-good flip *)
}

val hysteresis :
  ?proc:Cml_cells.Process.t ->
  ?config:Readout.config ->
  ?vtest:float ->
  ?v_min:float ->
  ?points:int ->
  ?preflight:bool ->
  unit ->
  hysteresis
(** Figure 12: drive the read-out's [vout] node directly with a DC
    source swept down from [vtest] to [v_min] (default rail - 0.2 V)
    and back up, with continuation, and locate the two comparator
    switch points.  [switch_down] is the paper's "guaranteed
    detected" level, [switch_up] its "treated as fault-free" level. *)

type phase_response = {
  static_false : float;  (** detector drop with the input held at 0 *)
  static_true : float;  (** with the input held at 1 *)
  toggling : float;  (** with a square-wave input *)
}

val phase_sensitivity :
  ?proc:Cml_cells.Process.t ->
  ?preflight:bool ->
  variant:variant ->
  pipe:float ->
  freq:float ->
  tstop:float ->
  unit ->
  phase_response
(** Section 6.6: a single-sided (variant-1) detector only sees the
    excursion when it lands on the complement output, so one static
    input phase masks the fault; toggling the gate asserts it half
    the cycles, and the double-sided variant 2 sees every phase.
    Returns the detector output drop for the three stimuli on a
    monitored buffer with the given tail pipe. *)
