(** Fanout-cone restriction of a defect variant.

    A defect can only change the waveforms of its own fanout cone.
    This module cuts that cone out of a golden netlist, so a campaign
    variant simulates only the cone's unknowns, with every net the cone
    reads from outside forced to its nominal waveform.

    It relies on the naming contract {!Inject} and {!Sites} already
    use ({!Cml_cells.Builder}): devices are named [<cell>.<dev>] and
    nodes [<cell>.<node>], so the text before the first dot names the
    cell that owns a device or a net.  Names without a dot (the
    [vdd] and [vbias] rails, ground) belong to no cell.

    A net is {e ideal} when an ideal voltage source ties it to ground:
    the rails, the bias line and the primary inputs.  Ideal nets carry
    no defect effect, so they never pull their owner into a cone.

    The cone of a set of cells is built in two steps:
    - its roots are those cells plus the owner of every non-ideal net
      their devices touch (the drivers of their inputs, which a defect
      can load);
    - the cone is the roots closed under fanout: a cell belongs to it
      when one of its devices touches a non-ideal net a cone cell owns.

    The cone netlist holds the cone cells' devices, the ideal sources
    of the ownerless rails it touches ([vdd], [vbias]), and one
    voltage source per {e boundary} net: a net the cone reads but no
    cone cell owns.  {!drive} makes each boundary source a
    piecewise-linear copy of the net's nominal waveform. *)

type t
(** One extracted cone: its cells, boundary and netlist shape.  No
    waveform is attached yet. *)

val extract : Cml_spice.Netlist.t -> cells:string list -> t
(** The cone of [cells] in the golden netlist.
    @raise Invalid_argument when [cells] is empty. *)

val cells : t -> string list
(** Cone cells, in golden device order. *)

val boundary : t -> (string * bool) list
(** Boundary nets in golden node order, each with whether it is
    ideal. *)

val unknowns : t -> int
(** Unknowns of the cone netlist (node voltages plus voltage-source
    branches). *)

val golden_unknowns : t -> int
(** Unknowns of the golden netlist it was cut from. *)

val selected : t -> bool
(** The cone rule: simulate on the cone only when its netlist has at
    most half the golden netlist's unknowns.  A larger cone saves too
    little to pay for the approximation. *)

type driven
(** A cone whose boundary is driven from a nominal run. *)

val drive : t -> reference:Cml_spice.Transient.result -> driven
(** Attach the nominal run of the golden netlist (a dense trajectory,
    [record_every = 1]):
    - every boundary source becomes a PWL copy of its net's reference
      samples;
    - the guide is the reference trajectory projected onto the cone's
      unknowns: nodes by name, copied source branches by name, 0 for
      the boundary branches;
    - the nominal supply share is the [vdd] branch current of one DC
      solve of the cone, seeded by the guide's [t = 0] row.
    The PWL knots are not breakpoints: run the cone with the golden
    breakpoint schedule.
    @raise Cml_spice.Engine.No_convergence when that DC solve fails. *)

val plan :
  Cml_spice.Netlist.t -> reference:Cml_spice.Transient.result -> Defect.t list -> Defect.t ->
  driven option
(** [plan golden ~reference defects] extracts and drives one cone per
    distinct set of attacked cells among [defects] (a defect attacks
    the owner of its device, or the owners of a bridge's two nets),
    and returns the
    lookup a campaign routes each defect through: [Some] cone when
    {!selected} holds and the cone's DC solve converged, [None] for
    the full netlist.  The lookup only reads, so worker domains can
    share it. *)

val netlist : driven -> Cml_spice.Netlist.t
(** The cone netlist with its PWL boundary sources.  Inject a defect
    into a copy ({!Inject.apply} copies). *)

val guide : driven -> Cml_spice.Transient.result
(** The projected reference trajectory, a warm-start guide for
    {!Cml_spice.Transient.run} on the cone. *)

val nominal_supply : driven -> float
(** Magnitude of the cone's nominal [vdd] current (A): the share of
    the golden supply current the cone draws. *)

val node : driven -> string -> Cml_spice.Netlist.node option
(** The cone node of a golden net, by name, when a cone cell owns the
    net; [None] for boundary nets and nets outside the cone. *)

type meter
(** The boundary draw of one run: the largest current magnitude any
    boundary source on a non-ideal net delivers at an accepted step.
    A source delivering far more than the nominal base currents means
    the defect reaches back into a driving cell, which the cone does
    not simulate. *)

val meter : driven -> Cml_spice.Engine.sim -> meter
(** A fresh meter for a sim compiled from (a faulty copy of)
    {!netlist}. *)

val record : meter -> float -> float array -> unit
(** The {!Cml_spice.Transient.observers} [on_step] hook that feeds
    the meter. *)

val peak : meter -> float
(** The largest draw recorded (A); 0 when the cone has no non-ideal
    boundary net, NaN once any draw was NaN. *)
