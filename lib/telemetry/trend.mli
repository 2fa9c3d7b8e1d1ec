(** Cross-run trend analysis for [cmldft report --trend]: per-kernel
    trajectory sparklines and regression flags over the
    BENCH_spice.json history (cml-dft-perf/2), and wall-clock
    attribution by span group across a corpus of run manifests.  Its
    regression rule is also [bench/main.exe -- perf --check]'s gate: a
    kernel of the newest entry regresses when it is more than
    [regression_limit] times slower than in the last earlier entry
    recorded on as many cores. *)

val regression_limit : float

val sparkline : float list -> string
(** 8-level unicode block trajectory, scaled to the series' own
    min/max ([""] on an empty series). *)

val history_of_json : Json.t -> Json.t list
(** The entry list of a cml-dft-perf/2 document; [[]] on anything
    else. *)

val entry_kernels : Json.t -> (string * float) list
(** An entry's kernels: name and ns per run. *)

type kernel_trend = {
  k_name : string;
  k_series : float list;  (** ns per run, oldest entry first *)
  k_last : float;  (** in the newest entry *)
  k_prev : float option;
      (** the baseline: the kernel in the last earlier entry with the
          newest entry's [cores] *)
  k_regressed : bool;  (** last vs prev at [regression_limit] *)
}

val kernel_trends : Json.t list -> kernel_trend list
(** One row per kernel of the newest entry, in its order: a kernel
    the newest entry lacks is neither shown nor gated. *)

val regressions : Json.t list -> kernel_trend list
(** The rows {!kernel_trends} flags: the [perf --check] gate. *)

val render :
  ?history:Json.t list -> ?manifests:(string * Manifest.t) list -> unit -> string
(** The full [report --trend] text: kernel table, span attribution,
    manifest inventory. *)
