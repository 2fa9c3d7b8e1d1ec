(** Small sequential benchmark circuits for the section-6.6
    experiments (toggle coverage by random patterns, initialization
    convergence, stuck-at coverage). *)

val counter : bits:int -> Circuit.t
(** Synchronous binary counter with an enable input; outputs the
    count bits. *)

val shift_register : bits:int -> Circuit.t
(** Serial-in shift register. *)

val traffic_fsm : unit -> Circuit.t
(** A 2-bit Moore FSM (traffic-light-style) with a synchronizing
    input; converges from any power-up state once the input pulses
    (the reference-[13] behaviour). *)

val decoded_counter : bits:int -> Circuit.t
(** A counter gated by the AND of three select inputs: a random
    pattern only advances it one cycle in eight, which is where
    toggle-directed generation ({!Directed}) pays off. *)

val multiplier : bits:int -> Circuit.t
(** Combinational array multiplier ([2*bits] product outputs,
    [p0..p(2b-1)]), built from AND/XOR/OR full-adder cells — the
    largest benchmark in the suite (a 4x4 is ~90 gates). *)

val c432_surrogate : unit -> Circuit.t
(** A c432-class combinational surrogate: 36 inputs, 7 outputs,
    ~150 gates of nand/xor ranks feeding a priority chain, with
    reconvergent fanout throughout — the committed
    [examples/netlists/c432_surrogate.bench] lint fixture.  Every net
    is observable (no error-level SCOAP findings). *)

val all : unit -> (string * Circuit.t) list
(** The benchmark suite with printable names. *)
