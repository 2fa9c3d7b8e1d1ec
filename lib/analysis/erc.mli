(** Electrical rule checking on {!Cml_spice.Netlist.t}: structural
    checks (floating nodes, DC paths, value sanity, source loops) and
    CML-specific design rules (load matching, tail sources, swing
    budget, vtest routing).  Everything is static — no simulation is
    run — so a check costs microseconds and can gate every campaign. *)

type config = {
  swing_min : float;  (** lower edge of the nominal swing window (V) *)
  swing_max : float;  (** upper edge of the nominal swing window (V) *)
  load_tolerance : float;  (** relative load-resistor mismatch tolerated *)
}

val default_config : config
(** [swing_min = 0.12], [swing_max = 0.45] (the paper's nominal
    250 mV sits mid-window), [load_tolerance = 1e-3]. *)

val check : ?config:config -> Cml_spice.Netlist.t -> Diagnostic.t list
(** Run every ERC and CML rule; the result is unsorted (callers
    usually hand it to {!Diagnostic.sort} or a renderer). *)
