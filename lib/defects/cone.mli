(** Fanout-cone restriction of a defect variant.

    A defect can only change the waveforms of its own fanout cone.
    This module cuts that cone (or the part of it within a few cell
    levels of the defect) out of a golden netlist, so a campaign
    variant simulates only those unknowns, with every net they read
    from outside forced to its nominal waveform.

    It relies on the naming contract {!Inject} and {!Sites} already
    use ({!Cml_cells.Builder}): devices are named [<cell>.<dev>] and
    nodes [<cell>.<node>], so the text before the first dot names the
    cell that owns a device or a net.  Names without a dot (the
    [vdd] and [vbias] rails, ground) belong to no cell.

    A net is {e ideal} when an ideal voltage source ties it to ground:
    the rails, the bias line and the primary inputs.  Ideal nets carry
    no defect effect, so they never pull their owner into a cone.

    A cone is a set of {e root} cells closed under fanout: a cell
    belongs to it when one of its devices touches a non-ideal net a
    cone cell owns.  A {e cut} is the same closure bounded at a depth
    of reader levels, plus a {e fringe} of the other readers of its
    nets; a cone is a cut with no depth bound, and so no fringe.  Two
    root rules are used:
    - a defect's cone ({!attacked}) starts from the attacked cells plus
      the owner of every non-ideal net their devices touch (the drivers
      of their inputs, which a defect can load);
    - the {e active} cone ({!active}) starts from the cells that read a
      net whose ideal source has a non-DC waveform (the toggling
      inputs, a clock): outside it, every net stays at its DC value in
      the fault-free run, apart from back-loading by the active cells.

    The netlist holds the simulated cells' devices, the ideal sources
    of the ownerless rails it touches ([vdd], [vbias]), and one
    voltage source per {e boundary} net: a net the cone reads but no
    cone cell owns.  {!drive} gives every boundary source its waveform
    from a {!reference}, by the rule {!samples} reads a reference by;
    a {!monitor} watches one run of a driven netlist step by step. *)

type t
(** One extracted cone: its cells, boundary and netlist shape.  No
    waveform is attached yet. *)

val attacked : Cml_spice.Netlist.t -> cells:string list -> t
(** The cone a defect in [cells] can reach: [cells] and the drivers
    of their non-ideal inputs, closed under fanout.
    @raise Invalid_argument when [cells] is empty. *)

val active : Cml_spice.Netlist.t -> t option
(** The cone of the cells that read a net driven by an ideal source
    with a non-DC waveform; [None] when no such source exists. *)

val cut : t -> depth:int -> t
(** [cut t ~depth]: the part of the cone within [depth] fanout levels
    of its roots, levels counted on the same reader graph the cone is
    closed on (the roots are level 0, so an attacked cell's drivers
    stay in).  The netlist keeps those cells and adds a {e fringe}:
    every other cell that reads one of their nets.  The fringe keeps
    the {e cut nets} (the kept nets the fringe reads) at their exact
    loading; its own outputs are forced to the reference like the
    boundary nets, but their sources are neither held ({!monitor})
    nor supply.  {!cells} are the kept cells. *)

val cells : t -> string list
(** Simulated cells (a cut's kept cells, not its fringe), in golden
    device order. *)

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

type reference
(** A fault-free run cones are driven from and variants are guided
    by: the golden netlist's DC operating point, optionally with a
    dense transient ([record_every = 1]) of the golden netlist or of a
    cone netlist cut from it.  Nets the transient has follow it; every
    other net holds its DC value. *)

val operating_point : Cml_spice.Netlist.t -> Cml_spice.Engine.sim -> float array -> reference
(** [operating_point golden sim x]: the DC point [x] of [sim],
    compiled from [golden]. *)

val with_run : reference -> Cml_spice.Netlist.t -> Cml_spice.Transient.result -> reference
(** [with_run r net run] adds the dense transient [run] of [net] —
    [golden] itself, or a cone netlist ({!netlist}) — to [r]. *)

val of_run : Cml_spice.Netlist.t -> Cml_spice.Transient.result -> reference
(** A dense transient of the golden netlist itself, whose first row
    is its DC point. *)

val full_guide : reference -> Cml_spice.Transient.result
(** The run on the golden netlist's unknowns, a warm-start guide for
    a full-netlist variant: the run itself when it simulated the
    golden netlist, else the DC row with the run's nodes and golden
    source branches scattered in by name (built once, on the first
    call; safe from worker domains).
    @raise Invalid_argument when [r] has no run. *)

val samples : reference -> Cml_spice.Netlist.node -> float array * float array
(** [samples r g]: the reference's waveform of golden net [g] as
    (times, values): the run's column when the run's netlist has the
    net, else the net's DC value at every time of the run.  A boundary
    source of {!drive} follows the same rule.
    @raise Invalid_argument when [r] has no run. *)

type driven
(** A cone or cut whose boundary is driven from a reference. *)

val drive : t -> reference:reference -> driven
(** Build the netlist and solve its DC operating point:
    - an ideal boundary net keeps its own source's waveform; any other
      boundary net follows the reference (a PWL copy of the run's
      samples when the run has the net, else its DC value);
    - the guide is the reference run projected onto the netlist's
      unknowns: nodes by name, golden source branches by name, 0 for
      the boundary branches; DC values for what the run lacks;
    - the nominal supply share is the [vdd] branch current plus the
      held boundary sources' currents ({!monitor}) of one DC solve,
      seeded by that projection at [t = 0].
    The PWL knots are not breakpoints: run it with the golden
    breakpoint schedule.
    @raise Cml_spice.Engine.No_convergence when that DC solve fails. *)

val cut_depth : int
(** The depth of the cut a cone variant tries first: 1.  On the c432
    surrogate's default DUT a cell one level past the attacked cell
    already tells a healed variant (within 7 mV of the reference) from
    one whose fault propagates (13 mV or more away). *)

val plan : reference -> Defect.t list -> Defect.t -> driven list
(** [plan reference defects] drives the netlists of one {!attacked}
    cone per distinct set of attacked cells among [defects] (a defect
    attacks the owner of its device, or the owners of a bridge's two
    nets), and returns the lookup a campaign routes each defect
    through: the {e rungs} to try in order.  A cone that fails
    {!selected}, or whose DC solve does not converge, gives [[]]: the
    full netlist.  Otherwise the rungs are its {!cut} at {!cut_depth},
    when that cut has fewer unknowns than the cone and its DC solve
    converged (the chain's stage-8 cone has nothing downstream, so it
    has none), then the cone itself.  The lookup only reads, so worker
    domains can share it. *)

val depth : driven -> int option
(** The depth of a cut; [None] for a cone. *)

val netlist : driven -> Cml_spice.Netlist.t
(** The netlist with its PWL boundary sources.  Inject a defect into a
    copy ({!Inject.apply} copies). *)

val guide : driven -> Cml_spice.Transient.result option
(** The projected reference run, a warm-start guide for
    {!Cml_spice.Transient.run} on the netlist; [None] when the
    reference is a DC point only. *)

val start : driven -> float array
(** A fresh copy of the DC operating point, the [x0] of a transient of
    {!netlist}. *)

val nominal_supply : driven -> float
(** Magnitude of the nominal [vdd] plus held-source current (A): the
    share of the golden supply current the netlist draws. *)

val node : driven -> string -> Cml_spice.Netlist.node option
(** The node of a golden net, by name, when a simulated cell
    ({!cells}) owns the net; [None] for boundary nets, a cut's fringe
    and nets outside the cone. *)

type monitor
(** One run's per-step watch: its supply current (the signed sum of
    the [vdd] branch and every held source, the source forcing a
    non-ideal boundary net, which delivers what the net's real driver
    would draw from the rail), its boundary draw (the largest current
    a held source delivers: far above the nominal base currents, the
    defect reaches back into a driver the netlist does not simulate)
    and, on a cut, each cut net's deviation from its reference wave. *)

exception Deviation of float * float
(** [(t, dv)]: a cut net strayed [dv] volts from its reference wave at
    time [t], beyond the monitor's [epsilon]. *)

val monitor : ?driven:driven -> ?epsilon:float -> Cml_spice.Engine.sim -> monitor
(** A monitor for [sim], compiled from the golden netlist (no
    [driven]) or from (a faulty copy of) [driven]'s {!netlist};
    [epsilon] (default infinity) bounds the cut nets' deviation. *)

val observe : monitor -> float -> float array -> unit
(** The {!Cml_spice.Transient.observers} [on_step] hook.
    @raise Deviation at the first cut-net deviation beyond [epsilon]. *)

val draw : monitor -> float
(** The largest boundary draw (A); NaN once any draw was NaN. *)

val deviation : monitor -> float
(** The worst cut-net deviation (V). *)

val supply : monitor -> float array * float array
(** The supply current (times, values).
    @raise Not_found when the sim has no [vdd] branch. *)
