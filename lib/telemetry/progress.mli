(** Per-domain lock-free progress cells.

    Worker domains report run progress (variants started / done /
    failed, accepted solver steps, current item label) into a cell
    they own; a sampler on any domain snapshots every cell at once.
    Hooks fire at variant boundaries only — nothing here sits on a
    solver hot path — and cost one atomic load and a branch while
    disabled.

    Cells are process-global and cumulative; a run calls {!reset}
    before its first hook (from the submitting domain, while the pool
    is quiescent) so samples read as per-run counts. *)

val enabled : unit -> bool

val set_enabled : bool -> unit
(** Progress recording is off by default; {!Events.run_start} turns
    it on for the duration of an instrumented run. *)

(** {1 Recording} — owner-domain hooks, no-ops while disabled. *)

val variant_start : string -> unit
(** Mark one variant started on this domain and set its label. *)

val variant_finish : failed:bool -> steps:int -> unit
(** Mark the variant done (or failed) on this domain and credit its
    [steps] accepted solver steps. *)

(** {1 Sampling} *)

type sample = {
  s_domain : int;  (** domain id, matches trace [tid] *)
  s_started : int;
  s_done : int;
  s_failed : int;
  s_steps : int;
  s_label : string;  (** most recent {!variant_start} label *)
}

val sample : unit -> sample list
(** Snapshot of every registered cell, sorted by domain id.  Safe
    from any domain while owners are recording. *)

val reset : unit -> unit
(** Zero every cell.  Only safe while no other domain is recording. *)
