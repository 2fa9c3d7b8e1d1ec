(** Optional per-simulation solver introspection.

    A recorder captures, per attached {!Engine.sim}: per-Newton-
    iteration delta norms with worst-unknown and worst-junction-device
    attribution, per-rejection LTE blame (which node forced the step
    down, and the rejection cascade depth), the step-size controller's
    dt timeline with cause tags, and the reasons for every LU
    stability fallback.  Batched lanes each own a sim, so attaching
    one recorder per lane tags everything per lane.

    Contract (the same as {!Cml_telemetry.Progress.note_step}): every
    [note_*] entry point takes a [t option] and costs one call and one
    match when the option is [None] — all scanning work lives inside
    the [Some] arm.  A recorder only reads solver state; attaching one
    never changes a bit of the simulated waveform (qcheck-enforced). *)

type t

val create : ?label:string -> unit -> t
(** Fresh empty recorder; [label] names the lane/variant it is
    attached to (post-mortem display only). *)

val label : t -> string

(** {2 dt-timeline cause tags} *)

val cause_accept : int

val cause_breakpoint : int
(** accepted, cautious restart at a breakpoint *)

val cause_guide : int
(** accepted only after the guide-trajectory rescue *)

val cause_lte : int
(** rejected: local truncation error *)

val cause_newton_fail : int
(** rejected: Newton did not converge *)

val cause_name : int -> string

(** {2 LU fallback reason codes} *)

val lu_small_pivot : int
val lu_unstable_pivot : int
val lu_pattern : int

(** {2 Hot-path notes} — one match when the recorder is [None]. *)

val note_newton :
  t option ->
  time:float ->
  iter:int ->
  x:float array ->
  xn:float array ->
  junction_error:float ->
  junction_worst:int ->
  unit
(** Record one Newton iteration that solved a system: scans [x]/[xn]
    for the worst delta (inside the [Some] arm only). *)

val note_newton_fail : t option -> time:float -> unit
(** Record a Newton solve that gave up; blames the worst unknown of
    its final recorded iteration. *)

val note_lte : t -> time:float -> h:float -> worst:int -> ratio:float -> cascade:int -> unit
(** Record an LTE rejection blamed on unknown [worst], whose deviation
    from the prediction was [ratio] times its tolerance (the caller
    scans, and only when a recorder is attached). *)

val note_dt : t option -> t:float -> h:float -> cause:int -> unit
val note_lu_fallback : t option -> reason:int -> unit

(** {2 Analysis accessors} (post-mortem time) *)

type newton_row = {
  nr_time : float;
  nr_iter : int;
  nr_delta : float;  (** max_i |xn_i - x_i| for this iteration *)
  nr_worst : int;  (** unknown index attaining the max, -1 if none *)
  nr_jerr : float;  (** junction-limiting error after the device load *)
  nr_jworst : int;  (** device index of the worst junction, -1 *)
}

val newton_rows : t -> newton_row list

type fail_row = { fr_time : float; fr_worst : int; fr_delta : float }

val fail_rows : t -> fail_row list

type lte_row = {
  lr_time : float;
  lr_h : float;
  lr_worst : int;
  lr_ratio : float;  (** |x - xpred| / tol at the worst node *)
  lr_cascade : int;  (** consecutive rejections ending at this one *)
}

val lte_rows : t -> lte_row list

type dt_row = { dr_t : float; dr_h : float; dr_cause : int }

val dt_rows : t -> dt_row list

val lu_fallbacks : t -> int * int * int
(** [(small_pivot, unstable_pivot, pattern_mismatch)] counts. *)

val newton_failures : t -> int
