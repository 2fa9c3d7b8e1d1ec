(** Small-signal AC analysis: linearise the circuit at its DC
    operating point and solve [(G + j*omega*C) x = b] across a
    frequency sweep.  Used to characterise detector bandwidth and
    comparator gain. *)

type point = {
  freq : float;
  re : float array;  (** real part of every unknown *)
  im : float array;
}

val run :
  ?x_op:float array ->
  Engine.sim ->
  source:string ->
  freqs:float array ->
  point list
(** Sweep with a unit-magnitude AC excitation on the named voltage
    source (all other independent sources are AC-quiet).  The
    operating point defaults to {!Engine.dc_operating_point}.
    @raise Not_found if [source] is not a voltage source of the
    compiled circuit.
    @raise Engine.No_convergence if the implicit DC solve fails. *)

val magnitude : point -> Netlist.node -> float
(** |V(node)| at this frequency point. *)

val phase_deg : point -> Netlist.node -> float
(** Phase of V(node) in degrees. *)

