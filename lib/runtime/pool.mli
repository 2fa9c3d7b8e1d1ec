(** Fixed-size Domain worker pool for the simulation hot paths.

    Defect campaigns, Monte-Carlo sampling, logic fault simulation and
    detector characterisation sweeps all run many independent
    simulations; {!parallel_map} distributes them over OCaml 5 domains
    while keeping results deterministic: slot [i] of the output is
    always [f arr.(i)], so a parallel run is byte-identical to a
    sequential one.

    Job-count resolution, everywhere a [?jobs] argument is optional:
    explicit argument, then {!set_default_jobs} (the [--jobs] command
    line flag), then the [CML_DFT_JOBS] environment variable, then
    [Domain.recommended_domain_count () - 1] (at least 1).  [jobs = 1]
    is an exact sequential fallback.

    Requesting more jobs than the machine has cores still caps the
    active domain count at the core count, but no longer silently: the
    first such batch prints a one-shot warning and records a telemetry
    event (see {!Cml_telemetry.Trace.warn_once}). *)

val default_jobs : unit -> int
(** The job count used when no [?jobs] argument is given. *)

val set_default_jobs : int -> unit
(** Override {!default_jobs} for the whole process (wins over the
    environment).  [0] means auto — one job per core
    ([Domain.recommended_domain_count ()]).
    @raise Invalid_argument below 0. *)

val parallel_map : ?jobs:int -> ('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs f arr] is [Array.map f arr] computed by up to
    [jobs] domains (the caller plus workers from a shared global pool
    created on first use).  Tasks must be independent: [f] must not
    mutate state shared between elements.  If any [f arr.(i)] raises,
    the exception of the lowest failed index is re-raised in the
    caller after the batch stops scheduling new tasks.  The global
    pool is sized at first parallel call; larger later requests are
    capped at its size. *)

val parallel_list_map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** List counterpart of {!parallel_map} (order preserved). *)

val parallel_map_batches :
  ?jobs:int -> ?max_batch:int -> ('a array -> 'b array) -> 'a array -> 'b array
(** [parallel_map_batches f arr] splits [arr] into contiguous slices,
    applies [f] to each slice (one pool task per slice, so [f] can
    amortise per-slice work — a fault-simulation pattern block — and
    the per-task hand-off across the slice's elements) and
    concatenates the results in order: the output is element-for-element
    the concatenation of [f] over the slices, deterministically.  Slice
    sizes target ~4 tasks per active domain, capped at [max_batch]
    (default unbounded); at [jobs = 1] the whole input still arrives in
    [max_batch]-bounded slices.  [f] must return exactly one output per
    input element (checked).
    @raise Invalid_argument on [max_batch < 1]. *)

(** {1 Busy/idle accounting}

    Every chunk of pool work a domain executes is timed into a
    per-domain cell: busy nanoseconds, items executed, and the longest
    stall (the widest gap between two consecutive chunk executions
    within one batch — idle time while the batch still had work).
    Sequential fallbacks account busy time and items too (no stall),
    so a [jobs = 1] run reports a utilization row.  Counters are
    cumulative over the process; snapshot-and-diff with
    {!utilization_since} to scope them to a run.  Sampling is only
    exact at quiescent points (no batch in flight), which is where
    every caller reads it. *)

type domain_stats = {
  busy_ns : int64;  (** time spent inside pool tasks *)
  items : int;  (** pool tasks executed (slices count as one each) *)
  longest_stall_ns : int64;  (** watermark since the last reset *)
}

val utilization : unit -> (int * domain_stats) list
(** Cumulative per-domain counters, keyed by domain id, sorted. *)

val utilization_since : (int * domain_stats) list -> (int * domain_stats) list
(** [utilization_since before] diffs the current counters against an
    earlier {!utilization} snapshot, dropping domains that did no work
    in between.  The stall column is the current watermark (a max
    cannot be diffed) — call {!reset_stall_watermarks} at the start of
    the window to scope it. *)

val reset_stall_watermarks : unit -> unit
(** Zero every domain's longest-stall watermark.  Only safe at a
    quiescent point (no batch in flight). *)
