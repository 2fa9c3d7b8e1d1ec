(** The post-mortem pipeline behind [cmldft explain].

    Given a finished campaign — a {!Cml_telemetry.Manifest} or a
    [cml-dft-events/1] JSONL stream — pick one variant, rebuild its
    faulty netlist from the recorded options (the built-in buffer
    chain plus one {!Cml_defects.Sites} defect) as the campaign
    simulated it — the defect's fanout cone ({!Cml_defects.Cone}) when
    the campaign's cone rule picks it, unless the manifest records the
    variant's [fallback] to the full chain (an events stream records
    none, so its cone variants replay the cone run) — re-simulate it with a
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

val load_source : string -> Cml_telemetry.Manifest.t
(** Read a run manifest, or condense an events JSONL stream into a
    pseudo-manifest (kind and options from [run_start], variants from
    the [variant_done] events).
    @raise Unexplainable when the file is neither. *)

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
