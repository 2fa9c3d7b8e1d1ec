module N = Cml_spice.Netlist

let terminal_node net ~device ~terminal =
  let d = N.get_device net device in
  match List.assoc_opt terminal (N.device_terminals d) with
  | Some nd -> nd
  | None -> raise Not_found

(* A defect resistance must be positive: [Engine.compile] would
   otherwise reject the faulty netlist, outside the campaign's
   per-variant failure fold.  Written [not (r > 0.)] so NaN fails too. *)
let check_resistance what r =
  if not (r > 0.) then invalid_arg (Printf.sprintf "%s defect needs a positive resistance" what)

let apply net defect =
  let net = N.copy net in
  (match defect with
  | Defect.Pipe { device; r } -> begin
      check_resistance "pipe" r;
      match N.get_device net device with
      | N.Bjt { collector; emitters; _ } ->
          N.resistor net ~name:"defect.pipe" collector emitters.(0) r
      | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Vccs _ -> invalid_arg "pipe defect requires a BJT"
    end
  | Defect.Terminal_short { device; t1; t2 } ->
      let n1 = terminal_node net ~device ~terminal:t1 in
      let n2 = terminal_node net ~device ~terminal:t2 in
      if n1 = n2 then invalid_arg "short between already-connected terminals";
      N.resistor net ~name:"defect.short" n1 n2 Defect.short_resistance
  | Defect.Bridge { node1; node2; r } -> begin
      check_resistance "bridge" r;
      match (N.find_node net node1, N.find_node net node2) with
      | Some n1, Some n2 ->
          if n1 = n2 then invalid_arg "bridge between identical nodes";
          N.resistor net ~name:"defect.bridge" n1 n2 r
      | None, _ | _, None -> raise Not_found
    end
  | Defect.Open_terminal { device; terminal } ->
      let old_node = terminal_node net ~device ~terminal in
      let split = N.fresh_node net (device ^ "." ^ terminal ^ ".open") in
      N.rewire_terminal net ~dev:device ~terminal split;
      N.resistor net ~name:"defect.open_r" old_node split Defect.open_resistance;
      N.capacitor net ~name:"defect.open_c" old_node split Defect.open_capacitance
  | Defect.Resistor_short { device } -> begin
      match N.get_device net device with
      | N.Resistor r -> N.set_device net device (N.Resistor { r with r = Defect.short_resistance })
      | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Vccs _ -> invalid_arg "resistor short requires a resistor"
    end
  | Defect.Resistor_open { device } -> begin
      match N.get_device net device with
      | N.Resistor r ->
          N.set_device net device (N.Resistor { r with r = Defect.open_resistance });
          N.capacitor net ~name:"defect.open_c" r.n1 r.n2 Defect.open_capacitance
      | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Vsource _ | N.Isource _ | N.Vcvs _
      | N.Vccs _ -> invalid_arg "resistor open requires a resistor"
    end);
  net
