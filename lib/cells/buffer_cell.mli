(** The basic CML data buffer of the paper's Figure 1: a differential
    pair (Q1, Q2) over a current-source transistor (Q3) with two
    collector load resistors.

    Instance [x] creates devices [x.q1] (input-true side, collector =
    complement output), [x.q2], [x.q3] (tail source — the pipe-defect
    site of the paper), loads [x.r1]/[x.r2] and wiring capacitances
    [x.cn]/[x.cp]; internal nodes [x.op], [x.on], [x.ce]. *)

val add : Builder.t -> name:string -> input:Builder.diff -> Builder.diff
(** Non-inverting buffer: output follows the input polarity. *)

val inverter : Builder.t -> name:string -> input:Builder.diff -> Builder.diff
(** Built from the same cell with the output pair swapped (free in
    CML). *)
