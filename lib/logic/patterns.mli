(** Test pattern generation for the paper's section 6.6: random
    patterns give good toggle coverage on sequential circuits.  The
    LFSR mirrors what an on-chip BIST generator would produce. *)

type lfsr

val lfsr_create : ?seed:int -> unit -> lfsr
(** 32-bit Galois LFSR (maximal-length taps); [seed] must be
    non-zero, default 0x1. *)

val lfsr_next_bit : lfsr -> bool

val lfsr_patterns : lfsr -> width:int -> count:int -> Value.t array list

val random_patterns : seed:int -> width:int -> count:int -> Value.t array list
(** PRNG-based patterns, for comparison against the LFSR. *)

val walking_ones : width:int -> Value.t array list
(** Deterministic baseline: a walking-1 sequence. *)

val exhaustive : width:int -> Value.t array list
(** All [2^width] binary patterns ([width] at most 16). *)
