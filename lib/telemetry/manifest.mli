(** Run manifests: a machine-readable record of a campaign /
    Monte-Carlo run / characterisation sweep — tool and git revision,
    options and seed, per-variant classification + metrics, a
    metrics-registry snapshot and a span summary — so results are
    reproducible and diffable.  Rendered for humans by
    [cmldft report].

    A manifest records a run after the fact; its streaming sibling is
    the {!Events} JSONL run-event schema ([cml-dft-events/1]), written
    while the run is in flight.  Committed examples of both live in
    [examples/manifests/] ([campaign_x3.json] next to
    [campaign_x3.events.jsonl]), re-rendered by [make check]. *)

val schema : string
(** ["cml-dft-manifest/1"]. *)

type variant = {
  v_name : string;  (** defect / sample / sweep-point description *)
  v_classes : string list;  (** classification labels; [[]] reads as benign *)
  v_seconds : float;  (** wall-clock of this variant's simulation *)
  v_metrics : (string * float) list;  (** flat per-variant numbers (solver stats, measurements) *)
}

type t = {
  kind : string;  (** ["campaign"] or ["montecarlo"] *)
  tool : string;
  git : string;  (** [git describe --always --dirty], or ["unknown"] *)
  created : string;  (** UTC ISO-8601, informative only *)
  seed : int option;
  options : (string * string) list;
  healing : (string * int) list;
      (** healing-depth histogram ("clean" / "depth=N" / "unhealed"),
          counted by {!Cml_runtime.Variant_loop.run} from each
          variant's healing label; optional in the JSON — absent reads
          as [[]], and the member is omitted when empty, so the schema
          stays ["cml-dft-manifest/1"] *)
  variants : variant list;
  metrics : Metrics.snapshot;  (** registry delta over the run *)
  spans : (string * Trace.span_agg) list;
}

val create :
  ?seed:int ->
  ?options:(string * string) list ->
  ?healing:(string * int) list ->
  ?variants:variant list ->
  ?metrics:Metrics.snapshot ->
  ?spans:(string * Trace.span_agg) list ->
  kind:string ->
  unit ->
  t
(** Stamps tool, git revision and creation time. *)

exception Bad_manifest of string

val to_json : t -> Json.t
val of_json : Json.t -> t
(** @raise Bad_manifest on a missing or unsupported schema. *)

val write : path:string -> t -> unit
val read : path:string -> t
(** @raise Bad_manifest / [Json.Parse_error] / [Sys_error]. *)

(** {1 Report views} *)

val class_counts : variant list -> (string * int) list
(** Label counts over variants (a variant with no labels counts as
    ["benign"]), most frequent first. *)

val class_histogram : t -> (string * int) list
(** {!class_counts} over the manifest's variants. *)

val slowest : ?n:int -> t -> variant list

val cone_line : variant list -> string option
(** How a campaign's variants were simulated, from their [unknowns]
    and [fallback] metrics: ["N of M variants on a K-unknown cone, F
    fallbacks"], where K is the smallest cone a variant was measured
    on, or ["0 of M variants on a cone (full netlist, K unknowns)"]
    when no variant was routed to a cone.  Variants measured on a cut
    ({!cut_line}) are left out.  [None] when no other variant records
    [unknowns] (a manifest written before the cone path). *)

val cut_line : variant list -> string option
(** How a campaign's cone variants fared on their cone's cut, from
    their [cut], [cut_abort] and [unknowns] metrics: ["N of M cone
    variants on a K-unknown cut (depth k), A aborts"], where M counts
    the variants that tried a cut, N those measured on it (K is the
    smallest such cut) and A those re-run on the cone.  [None] when no
    variant tried a cut. *)

val render_text : ?top:int -> t -> string
(** The [cmldft report] body: the {!cone_line}, the {!cut_line}, classification
    histogram, slowest variants, metrics (with histogram percentiles),
    span summary. *)
