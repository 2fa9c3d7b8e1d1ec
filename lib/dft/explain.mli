(** The post-mortem pipeline behind [cmldft explain].

    Given a finished campaign — a {!Cml_telemetry.Manifest} or a
    [cml-dft-events/1] JSONL stream — pick one variant, rebuild its
    faulty netlist from the recorded options (the built-in buffer
    chain, or the compiled design a ["bench"] option names, plus one
    {!Cml_defects.Sites} defect of the ["dut"] cell) on the netlist the
    campaign measured it on: the first of its rungs
    ({!Cml_defects.Cone.plan}) it did not leave, read from the
    variant's metrics (a cut when [cut_abort] is 0, the fanout cone
    unless [fallback] is 1), else the whole netlist (an events stream
    records no metrics, so its cone variants replay the cone run) —
    re-simulate it with a
    solver-introspection recorder attached ({!Cml_spice.Introspect})
    and distil the recording into a {!Cml_telemetry.Postmortem}
    document: convergence narrative, worst-nets / worst-devices
    hotspot tables, per-rejection LTE blame, Newton retry blame, the
    dt timeline and the sparse-LU health summary.

    The re-simulation is scalar and single-threaded, so the document
    is a pure function of the source — byte-identical JSON at any
    [--jobs]. *)

type selection =
  | Auto
      (** the first variant classified ["failed"], else the one with
          the most recorded [newton_iters] (the slowest by wall clock
          when no variant records them); the earliest wins a tie *)
  | Nth of int  (** variant by 0-based run index ([--variant]) *)
  | Named of string
      (** first variant whose name contains the (case-insensitive)
          substring ([--defect]) *)

exception Unexplainable of string
(** The source cannot be explained: wrong run kind, options too thin
    to rebuild the circuit, selection out of range, or no defect site
    matching the variant name. *)

val explain :
  ?top:int ->
  ?selection:selection ->
  source:string ->
  Cml_telemetry.Manifest.t ->
  Cml_telemetry.Postmortem.t
(** Re-simulate the selected variant with introspection and build its
    post-mortem.  [top] (default 8) bounds every blame/hotspot table;
    [source] is recorded verbatim in the document.
    @raise Unexplainable as above. *)

val explain_path :
  ?top:int -> ?selection:selection -> string -> Cml_telemetry.Postmortem.t
(** {!load_source} composed with {!explain}. *)
