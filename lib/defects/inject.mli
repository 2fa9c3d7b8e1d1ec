(** Injection of a defect into a netlist by structural
    transformation.  The input netlist is never modified: injection
    works on a copy, so one golden circuit serves a whole campaign. *)

val apply : Cml_spice.Netlist.t -> Defect.t -> Cml_spice.Netlist.t
(** Return a faulty copy of the netlist.  Added devices are named
    ["defect.*"].
    @raise Not_found if the defect references an unknown device,
    terminal or node.
    @raise Invalid_argument if the defect kind does not match the
    device kind (e.g. [Resistor_short] on a transistor), or a [Pipe]
    or [Bridge] resistance is not positive (zero, negative or NaN). *)
