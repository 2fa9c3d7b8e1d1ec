(** Device model parameters.  The pn-junction maths the diode and BJT
    evaluators share lives in {!Engine}, next to its hot path. *)

val boltzmann_vt : float
(** Thermal voltage kT/q at 300 K (about 25.85 mV). *)

type diode = {
  d_is : float;  (** saturation current (A) *)
  d_n : float;  (** emission coefficient *)
  d_cj : float;  (** junction capacitance (F), treated as constant *)
}

val default_diode : diode

type bjt = {
  q_is : float;  (** transport saturation current (A) *)
  q_bf : float;  (** forward beta *)
  q_br : float;  (** reverse beta *)
  q_cje : float;  (** base-emitter capacitance (F) *)
  q_cjc : float;  (** base-collector capacitance (F) *)
}

val default_bjt : bjt
