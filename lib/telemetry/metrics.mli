(** Typed metrics registry: counters, gauges and log-bucketed
    histograms, registered once by name and safe to publish from
    worker domains (atomics on the publish path).

    The simulation stack publishes at run boundaries (end of a
    transient, a sweep point, a campaign variant), so per-event cost
    is irrelevant; what matters is that snapshots are consistent and
    cheap.  Snapshots are cumulative — wrap a run in two {!snapshot}
    calls and {!diff} them to get the run's own numbers. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** Get-or-create.  @raise Invalid_argument if the name is already
    registered as a different metric type. *)

val gauge : string -> gauge

val high_water : string -> gauge
(** A gauge that keeps the largest value {!set} since the last
    {!restart_high_water} (0 before any): its reading does not depend
    on the order in which worker domains publish.
    @raise Invalid_argument if the name is registered as another
    metric type or as a plain gauge. *)

val histogram : ?lo:float -> ?ratio:float -> ?buckets:int -> string -> histogram
(** Geometric buckets: bucket 0 holds values <= [lo] (default 1e-6),
    each next bucket grows by [ratio] (default 2.0), the last of
    [buckets] (default 40) is the overflow.  The defaults cover
    1 us .. hours of seconds-valued durations. *)

val add : counter -> int -> unit
val incr : counter -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val restart_high_water : unit -> unit
(** Zero every {!high_water} gauge: a run window opens with this, so
    its snapshot reads the maxima over the window. *)

(** {1 Snapshots} *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float * int) list;  (** (upper bound, count), zero buckets dropped *)
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type snapshot = (string * value) list
(** Sorted by metric name. *)

val snapshot : unit -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff before after]: counters and histogram counts subtract,
    gauges pass through, untouched metrics drop out. *)

val percentile : hist_snapshot -> float -> float option
(** Upper bound of the bucket holding the given quantile (0..1);
    [None] on an empty histogram. *)

val reset : unit -> unit
(** Zero every registered metric (instances stay valid). *)

(** {1 Rendering} *)

val to_json : snapshot -> Json.t
val of_json : Json.t -> snapshot
val render_text : snapshot -> string
