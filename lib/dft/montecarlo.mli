(** Monte-Carlo verification of the DFT scheme under process spread:
    the paper guarantees that a fault-free gate "will never be wrongly
    declared defective"; this harness checks both that (no false
    alarms on fault-free blocks) and the detection of a defective
    block across perturbed process samples. *)

type result = {
  samples : int;
  false_alarms : int;  (** fault-free blocks whose comparator latched faulty *)
  missed : int;  (** faulty blocks not flagged *)
  good_vout_min : float;  (** worst-case fault-free vout across samples *)
  good_vout_max : float;
  bad_vout_max : float;  (** best-case (i.e. least collapsed) faulty vout *)
  separation : float;  (** good_vout_min - bad_vout_max: the decision margin *)
  good_vouts : float array;  (** every fault-free sample, for statistics *)
  bad_vouts : float array;
  sample_reports : Cml_telemetry.Manifest.variant list;
      (** per-sample telemetry (classification, vouts, wall time) in
          sample order, for the run manifest *)
  metrics : Cml_telemetry.Metrics.snapshot;
      (** metrics-registry movement over this run *)
  utilization : Cml_telemetry.Events.domain_util list;
      (** per-domain busy/idle attribution over the sampling phase *)
  wall_s : float;  (** wall clock of the sampling phase *)
}

val run :
  ?proc:Cml_cells.Process.t ->
  ?spec:Cml_defects.Variation.spec ->
  ?n:int ->
  ?defect:Cml_defects.Defect.t ->
  ?multi_emitter:bool ->
  ?jobs:int ->
  ?warm_start:bool ->
  ?manifest:string ->
  samples:int ->
  seed:int ->
  unit ->
  result
(** Simulate [samples] perturbed copies of an [n]-gate (default 10)
    shared-read-out block, fault-free and with [defect] (default a
    4 kohm pipe on the middle gate's Q3), at the DC operating point in
    test mode.  A sample is flagged when its comparator feedback node
    latches to the fault state.  Samples run in parallel over [jobs]
    domains (deterministic: each sample's perturbation derives from
    [seed + k]).

    Unless [warm_start] is [false], the unperturbed fault-free and
    faulty netlists are solved once and every sample's Newton starts
    from the matching nominal operating point, falling back to the
    cold homotopies when a sample diverges.  Each sample re-values
    its netlist's nominal sim ({!Cml_spice.Engine.revalue}): it shares
    the nominal stamp layout and adopts its symbolic LU analysis, so a
    run compiles one layout and computes one column ordering per
    netlist instead of one per sample.  The run ends
    with one full major collection, which keeps the peak heap of
    back-to-back runs flat.

    [manifest] writes a {!Cml_telemetry.Manifest} JSON document to the
    given path after the run. *)

val to_manifest :
  ?seed:int -> ?options:(string * string) list -> result -> Cml_telemetry.Manifest.t
