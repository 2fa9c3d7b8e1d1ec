(** Area accounting for the DFT schemes (section 6.5 / Figure 15 and
    the prior-art comparison of section 1).  Device counts are
    obtained by actually building each structure with the cell
    library and counting, so they track the real netlists. *)

type counts = { bjts : int; resistors : int; capacitors : int }

val zero : counts
val add : counts -> counts -> counts
val scale : int -> counts -> counts

val buffer_gate : unit -> counts
(** Devices in one CML data buffer (its wiring capacitances
    included). *)

val xor_checker : unit -> counts
(** Menon's per-gate XOR test gate (reference [4]): a full CML XOR2
    including its level shifters. *)

val detector_v1 : Detector.config -> counts

val v3_sensors : multi_emitter:bool -> counts
(** Per monitored gate under load sharing. *)

val v3_readout : unit -> counts
(** The shared load + comparator + level shifter (amortised over the
    sharing group). *)

type scheme =
  | Menon_xor
  | Variant1 of Detector.config
  | Variant2 of Detector.config
  | Variant3 of { multi_emitter : bool; sharing : int }

val scheme_name : scheme -> string

val per_gate_counts : scheme -> float * float * float
(** Amortised (bjts, resistors, capacitors) added per monitored
    gate. *)

val overhead_fraction : scheme -> float
(** Amortised per-gate DFT transistor count over the buffer gate's
    transistor count — the headline overhead number. *)
