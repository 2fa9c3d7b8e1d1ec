(** Cross-run trend analysis for [cmldft report --trend]: per-kernel
    trajectory sparklines and regression flags over the
    BENCH_spice.json history (cml-dft-perf/2), the campaign scaling
    probe against its best-matching (jobs, cores) history, and
    wall-clock attribution by span group across a corpus of run
    manifests.  Its regression limits are bench/perf.ml's gate:
    slowdown factors of 1.25 per kernel ([regression_limit]) and 1.5
    ([campaign_limit]) for whole parallel workloads (the campaign
    probe, the batched-campaign kernel), which carry scheduler noise. *)

val regression_limit : float
val campaign_limit : float

val kernel_limit : string -> float
(** A kernel's limit, by name. *)

val sparkline : float list -> string
(** 8-level unicode block trajectory, scaled to the series' own
    min/max ([""] on an empty series). *)

val history_of_json : Json.t -> Json.t list
(** The entry list of a cml-dft-perf/1 or /2 document; [[]] on
    anything else. *)

type kernel_trend = {
  k_name : string;
  k_series : float list;  (** ns per run, oldest entry first *)
  k_last : float;
  k_prev : float option;
  k_regressed : bool;  (** last vs prev at the per-kernel limit *)
}

val kernel_trends : Json.t list -> kernel_trend list
(** One row per kernel name seen anywhere in the history, in first
    appearance order. *)

type campaign_trend = {
  c_jobs : int;
  c_cores : int;
  c_series : (float * float) list;
      (** (jobs1_s, jobsN_s) over entries matching the latest entry's
          (jobs, cores), oldest first *)
  c_regressed : bool;
}

val campaign_trend : Json.t list -> campaign_trend option

val render :
  ?history:Json.t list -> ?manifests:(string * Manifest.t) list -> unit -> string
(** The full [report --trend] text: kernel table, campaign probe,
    span attribution, manifest inventory. *)
