(** Dense complex matrices with LU solve, for small-signal (AC)
    analysis: one factorisation of [G + j*omega*C] per frequency
    point. *)

type t
(** Mutable complex [n] x [n] matrix stored as separate real and
    imaginary parts. *)

exception Singular of int

val create : int -> t
val clear : t -> unit

val add_entry : t -> int -> int -> re:float -> im:float -> unit
(** Accumulate a complex value. *)

val solve : t -> b_re:float array -> b_im:float array -> float array * float array
(** Solve [A x = b] by LU with partial pivoting on the complex
    magnitude; the matrix is not modified.
    @raise Singular when no usable pivot exists. *)
