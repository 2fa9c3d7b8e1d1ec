(** Static timing estimates on gate-level circuits, scaled by the
    analog library's measured CML gate delay: the levelized logic
    depth bounds the clock period (every gate here is one CML cell). *)

val depth : Circuit.t -> int
(** Longest combinational path, in gates (inputs, flip-flop outputs
    and buffers count as zero). *)

val critical_path : Circuit.t -> int list
(** Net ids along one longest combinational path, source first. *)

val min_clock_period : Circuit.t -> gate_delay:float -> float
(** [depth * gate_delay] — the datapath-limited clock floor to pair
    with {!Cml_cells}'s measured ~54 ps delay. *)
