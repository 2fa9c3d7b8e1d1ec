(** Structured span/event tracer for the simulation stack.

    Spans are nestable timed intervals ([campaign] > [variant] >
    [dc]/[transient] > [newton_solve]) with monotonic-clock
    timestamps and the recording domain's id; instants are point
    events (pool batches, one-shot warnings).  Every domain appends
    to its own buffer — no lock on the record path — and {!drain}
    merges the buffers into one (timestamp, domain)-ordered stream
    once the workload is quiescent, which is exactly what
    {!Cml_runtime.Pool.parallel_map}'s completion barrier guarantees.

    Tracing is off by default.  Disabled, {!start}/{!finish} cost one
    atomic load and a branch and allocate nothing, so they may sit on
    the Newton hot path; the perf bench asserts the disabled chain
    transient stays within 3% of the pre-telemetry baseline. *)

type arg = S of string | F of float | I of int

type phase = Complete of int64  (** duration, ns *) | Instant

type event = {
  name : string;
  cat : string;  (** coarse grouping: ["sim"], ["campaign"], ["pool"], ["warn"] *)
  ph : phase;
  ts : int64;  (** ns since {!Clock.epoch} *)
  tid : int;  (** recording domain id *)
  args : (string * arg) list;
}

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Recording} *)

val start : unit -> int64
(** Begin a span: the current timestamp, or a negative token when
    tracing is disabled.  Never allocates. *)

val finish : ?cat:string -> ?args:(string * arg) list -> string -> int64 -> unit
(** [finish name token] records the span opened by {!start}; a no-op
    on a disabled token.  Name the span at [finish] so the hot path
    needs no string until a span is actually recorded. *)

val with_span : ?cat:string -> ?args:(string * arg) list -> string -> (unit -> 'a) -> 'a
(** Closure convenience for cold call sites; records the span even
    when the thunk raises. *)

val instant : ?cat:string -> ?args:(string * arg) list -> string -> unit

val warn_once : key:string -> string -> unit
(** Print [message] to stderr and (when tracing) record a ["warn"]
    instant — once per [key] per process. *)

(** {1 Draining and sinks} *)

val drain : unit -> event list
(** Remove and return every recorded event, ordered by
    (timestamp, domain id).  Only call while no other domain is
    recording (after a parallel batch / at command exit). *)

val peek : unit -> event list
(** Like {!drain} but leaves the buffers intact — used by manifest
    writers so an enclosing [--trace] still sees every event. *)

val chrome_string : event list -> string

val write_chrome : path:string -> event list -> unit
(** Chrome trace JSON, one event per line. *)

(** {1 Aggregation} *)

type span_agg = { sa_count : int; sa_total_ns : int64; sa_max_ns : int64 }

val aggregate : event list -> (string * span_agg) list
(** Per-name totals over complete spans, heaviest first. *)

val make_event :
  ?cat:string ->
  ?args:(string * arg) list ->
  ?tid:int ->
  ts_ns:int64 ->
  ?dur_ns:int64 ->
  string ->
  event
(** Build an event directly (golden-fixture tests). *)
