(** Streaming run events ([cml-dft-events/1]).

    One JSONL line per lifecycle event: [run_start], then per variant
    a [variant_start]/[variant_done] pair in variant-index order,
    [heartbeat]s at work milestones (with an ETA from a
    completed-work-rate estimator and per-domain progress lanes), any
    [warning]s, a final [utilization] snapshot and [run_end].

    Determinism: every member outside each event's ["timing"] object
    is a pure function of the run's inputs — {!normalize} strips
    ["timing"] and drops [warning] events, and what remains is
    byte-identical at any [--jobs].  Workers deposit finished
    variants into indexed slots, and each deposit emits the contiguous
    prefix of deposited variants in index order, so scheduling order
    never leaks into the stream. *)

val schema : string
(** ["cml-dft-events/1"]. *)

(** {1 Sink} *)

type sink

val open_sink : string -> sink
(** Open [path] for writing (truncating); ["-"] streams to stderr. *)

val install : sink -> unit
(** Make [sink] the process-wide event stream ({!run_start} binds to
    it; {!warning} writes to it). *)

val installed : unit -> bool

val close : unit -> unit
(** Flush and close the installed sink (stderr is only flushed). *)

(** {1 Run lifecycle} *)

type variant = {
  ev_idx : int;  (** variant index in run order *)
  ev_name : string;
  ev_classes : string list;
  ev_healing : string option;  (** "clean" / "depth=N" / "unhealed" *)
  ev_failed : bool;
  ev_steps : int;  (** accepted solver steps (deterministic) *)
  ev_seconds : float;  (** wall time — lands in "timing" only *)
}

type domain_util = {
  du_domain : int;
  du_busy_s : float;
  du_items : int;
  du_longest_stall_s : float;
  du_busy_ratio : float;
}

val util_row :
  wall_s:float -> domain:int -> busy_ns:int64 -> items:int -> longest_stall_ns:int64 -> domain_util
(** One utilization row from raw pool counters; also publishes the
    [pool.domain.<i>.busy_ratio] gauge so the run manifest records
    it. *)

type run

val run_start :
  kind:string -> total:int -> ?jobs:int -> ?options:(string * string) list -> unit -> run
(** Start a tracked run: emits [run_start].  The run's progress lanes
    start empty.  With no sink installed the returned tracker is inert
    and every later call on it is a cheap no-op. *)

val variant_start : run -> string -> unit
(** Mark one variant started on the calling domain's lane and set the
    lane's label.  Worker-domain safe. *)

val variant_done : run -> variant -> unit
(** Credit the variant to the calling domain's lane (done or failed,
    and its steps), deposit it and emit the contiguous prefix of
    deposited variants (with milestone heartbeats) in index order.  A
    variant deposited past a gap is emitted by the deposit that fills
    the gap.  Worker-domain safe. *)

type lane = {
  l_domain : int;  (** domain id, matches trace [tid] *)
  l_started : int;
  l_done : int;
  l_failed : int;
  l_steps : int;
  l_label : string;  (** most recent {!variant_start} label *)
}
(** One domain's progress in a run, as a heartbeat's
    [timing.domains] member carries it. *)

val lanes : run -> lane list
(** Snapshot of the run's lanes, one per domain that started a
    variant, sorted by domain id; [[]] for an inert tracker.  Safe
    from any domain while workers record. *)

val finish :
  run -> classes:(string * int) list -> wall_s:float -> utilization:domain_util list -> unit
(** Emit the [utilization] snapshot and [run_end].  Every variant must
    have been deposited. *)

val warning : key:string -> string -> unit
(** Emit a [warning] event on the installed sink (no-op without
    one).  Warnings are host-dependent and excluded from
    {!normalize}. *)

(** {1 ETA estimator} *)

module Estimator : sig
  type t

  val create : total:int -> now_s:float -> t

  val note : t -> completed:int -> unit
  (** Record that [completed] variants have retired (done or failed —
      both consumed their share of the run).  Monotonic. *)

  val rate_per_s : t -> now_s:float -> float option

  val eta_s : t -> now_s:float -> float option
  (** Remaining work over the completed-work rate; [None] until the
      first retirement.  At a fixed [now_s], more retirements never
      increase the ETA. *)
end

(** {1 Reading a stream back} *)

val read_string : string -> Json.t list
(** Parse JSONL text (blank lines skipped).
    @raise Json.Parse_error on a malformed line. *)

val read_file : string -> Json.t list

val normalize : Json.t list -> Json.t list
(** The determinism view: ["timing"] members stripped, [warning]
    events dropped. *)

(** {1 Watch state} — pure fold over a stream, rendered by
    [cmldft watch]. *)

type state = {
  w_kind : string;
  w_total : int;
  w_done : int;
  w_failed : int;
  w_steps : int;
  w_t_s : float;
  w_eta_s : float option;
  w_rate : float option;
  w_classes : (string * int) list;
  w_healing : (string * int) list;
  w_lanes : lane list;
  w_last : string;
  w_warnings : string list;
  w_util : domain_util list;
  w_wall_s : float option;
  w_finished : bool;
}

val state_of_events : Json.t list -> state

val render_state : state -> string
(** Multi-line plain-text view (no escape codes; the CLI adds
    in-place redraw around it). *)
