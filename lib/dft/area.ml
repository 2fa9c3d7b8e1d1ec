module N = Cml_spice.Netlist

type counts = { bjts : int; resistors : int; capacitors : int }

let zero = { bjts = 0; resistors = 0; capacitors = 0 }

let add a b =
  {
    bjts = a.bjts + b.bjts;
    resistors = a.resistors + b.resistors;
    capacitors = a.capacitors + b.capacitors;
  }

let scale k a = { bjts = k * a.bjts; resistors = k * a.resistors; capacitors = k * a.capacitors }

let count_devices net ~from_index =
  let counts = ref zero in
  let i = ref 0 in
  N.iter_devices net (fun d ->
      if !i >= from_index then begin
        match d with
        | N.Bjt { emitters; _ } ->
            (* a dual-emitter transistor is one device but we count
               emitters separately below for honesty in the
               multi-emitter comparison: one physical transistor *)
            ignore emitters;
            counts := add !counts { zero with bjts = 1 }
        | N.Resistor _ -> counts := add !counts { zero with resistors = 1 }
        | N.Capacitor _ -> counts := add !counts { zero with capacitors = 1 }
        | N.Diode _ -> counts := add !counts { zero with bjts = 1 }
        | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Vccs _ -> ()
      end;
      incr i);
  !counts

(* Build the structure in a throwaway builder and count what it
   added. *)
let built structure =
  let b = Cml_cells.Builder.create () in
  let input = Cml_cells.Builder.diff_dc_input b ~name:"in" ~value:true in
  let before = N.device_count b.Cml_cells.Builder.net in
  structure b input;
  count_devices b.Cml_cells.Builder.net ~from_index:before

let buffer_gate () = built (fun b input -> ignore (Cml_cells.Buffer_cell.add b ~name:"g" ~input))

let xor_checker () =
  built (fun b input -> ignore (Cml_cells.Gates.xor2 b ~name:"g" ~a:input ~b:(Cml_cells.Builder.swap input)))

let detector_v1 cfg =
  built (fun b input ->
      let out = Cml_cells.Buffer_cell.add b ~name:"g" ~input in
      let before = N.device_count b.Cml_cells.Builder.net in
      ignore before;
      ignore (Detector.attach_v1 b ~name:"d" ~outputs:out cfg))
  |> fun c -> add c (scale (-1) (buffer_gate ()))

let detector_v2 cfg =
  built (fun b input ->
      let out = Cml_cells.Buffer_cell.add b ~name:"g" ~input in
      let vtest = Detector.ensure_vtest b (Detector.vtest_test b.Cml_cells.Builder.proc) in
      ignore (Detector.attach_v2 b ~name:"d" ~outputs:out ~vtest cfg))
  |> fun c -> add c (scale (-1) (buffer_gate ()))

let v3_sensors ~multi_emitter =
  built (fun b input ->
      let out = Cml_cells.Buffer_cell.add b ~name:"g" ~input in
      let vtest = Detector.ensure_vtest b (Detector.vtest_test b.Cml_cells.Builder.proc) in
      let vout = Cml_cells.Builder.node b "shared.vout" in
      Detector.attach_sensors b ~name:"d" ~outputs:out ~vtest ~vout ~multi_emitter)
  |> fun c -> add c (scale (-1) (buffer_gate ()))

let v3_readout () =
  built (fun b _input ->
      let vtest = Detector.ensure_vtest b (Detector.vtest_test b.Cml_cells.Builder.proc) in
      ignore (Readout.attach b ~name:"ro" ~vtest ()))

type scheme =
  | Menon_xor
  | Variant1 of Detector.config
  | Variant2 of Detector.config
  | Variant3 of { multi_emitter : bool; sharing : int }

let scheme_name = function
  | Menon_xor -> "Menon XOR checker"
  | Variant1 _ -> "variant 1"
  | Variant2 { Detector.multi_emitter = true; _ } -> "variant 2 (multi-emitter)"
  | Variant2 _ -> "variant 2"
  | Variant3 { multi_emitter = true; sharing } ->
      Printf.sprintf "variant 3 (multi-emitter, %d-way sharing)" sharing
  | Variant3 { sharing; _ } -> Printf.sprintf "variant 3 (%d-way sharing)" sharing

let per_gate_counts scheme =
  let exact c = (float_of_int c.bjts, float_of_int c.resistors, float_of_int c.capacitors) in
  match scheme with
  | Menon_xor -> exact (xor_checker ())
  | Variant1 cfg -> exact (detector_v1 cfg)
  | Variant2 cfg -> exact (detector_v2 cfg)
  | Variant3 { multi_emitter; sharing } ->
      let sens = v3_sensors ~multi_emitter in
      let ro = v3_readout () in
      let n = float_of_int (max sharing 1) in
      ( float_of_int sens.bjts +. (float_of_int ro.bjts /. n),
        float_of_int sens.resistors +. (float_of_int ro.resistors /. n),
        float_of_int sens.capacitors +. (float_of_int ro.capacitors /. n) )

let overhead_fraction scheme =
  let b, _, _ = per_gate_counts scheme in
  let gate = buffer_gate () in
  b /. float_of_int gate.bjts
