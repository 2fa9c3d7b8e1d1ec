(** The run lifecycle every campaign-like run shares — defect
    campaigns and Monte-Carlo sampling: a metrics-registry window and
    run span around the whole run, a tracked event stream, per-variant
    progress / trace span / timing / run event, slices scheduled over
    the pool, and the end-of-run utilization table and
    [run_end] event.  Written once here so every run reports the same
    way. *)

type window
(** An open run: the metrics snapshot and run span taken by {!start}. *)

val start : unit -> window
(** Snapshot the metrics registry and open the run span.  Everything
    the caller does before {!run} returns — the reference simulation,
    nominal solves — lands in the run's metrics delta. *)

type report = {
  classes : string list;  (** classification labels; [[]] reads as benign *)
  metrics : (string * float) list;  (** the manifest's per-variant numbers *)
  healing : string option;  (** healing label for the run event *)
  failed : bool;
  steps : int;  (** accepted solver steps (0 for DC-only variants) *)
}
(** What a finished variant tells the lifecycle. *)

type 'b t = {
  results : 'b array;  (** per-variant results, in input order *)
  variants : Cml_telemetry.Manifest.variant list;
      (** per-variant manifest records, in input order; [v_seconds] is
          each variant's own wall time *)
  metrics : Cml_telemetry.Metrics.snapshot;  (** registry movement since {!start} *)
  utilization : Cml_telemetry.Events.domain_util list;
      (** per-domain busy/idle attribution over the variant phase *)
  wall_s : float;  (** wall clock of the variant phase *)
}

val run :
  window ->
  kind:string ->
  item:string ->
  ?jobs:int ->
  ?max_batch:int ->
  options:(string * string) list ->
  name:('a -> string) ->
  slice:(unit -> 'a -> 'b * report) ->
  'a array ->
  'b t
(** [run w ~kind ~item ~options ~name ~slice xs] runs one variant per
    element of [xs] in contiguous slices of at most [max_batch]
    elements ({!Pool.parallel_map_batches} over [jobs] domains).
    [slice ()] is called once per slice and returns the per-variant
    function, so a slice can share state between its variants (a
    symbolic LU donor); results must not depend on the slicing beyond
    that.

    Around each variant: {!Cml_telemetry.Progress} start/finish, an
    [item] span in category [kind], the wall time (also counted into
    the [<kind>.<item>s] counter and the [<kind>.<item>_seconds]
    histogram) and a {!Cml_telemetry.Events.variant_done} deposit.
    The run emits [run_start] with [options] and finishes with the
    class histogram, utilization and [run_end]; it closes the [kind]
    run span opened by {!start}. *)
