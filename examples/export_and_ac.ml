(* Working with circuits as artefacts: export a monitored CML gate to
   the SPICE-flavoured text format, read it back, verify it simulates
   identically, and run a small-signal AC analysis on the comparator
   to see the gain that makes the read-out's positive feedback latch.

   Run with:  dune exec examples/export_and_ac.exe *)

module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module B = Cml_cells.Builder

let () =
  print_endline "=== netlist export / import and AC analysis ===\n";
  (* a buffer with a variant-2 detector *)
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"vin" ~value:true in
  let out = Cml_cells.Buffer_cell.add b ~name:"x1" ~input in
  let vtest = Cml_dft.Detector.ensure_vtest b 3.7 in
  ignore (Cml_dft.Detector.attach_v2 b ~name:"det" ~outputs:out ~vtest Cml_dft.Detector.v2_default);
  let net = b.B.net in

  let text = Cml_spice.Netlist_io.to_string net in
  Printf.printf "exported deck (%d devices, %d lines):\n" (N.device_count net)
    (List.length (String.split_on_char '\n' text));
  print_string text;

  let back = Cml_spice.Netlist_io.of_string text in
  let v net' =
    let x = E.dc_operating_point (E.compile net') in
    match N.find_node net' "det.vout" with Some nd -> E.voltage x nd | None -> nan
  in
  Printf.printf "\ndetector vout, original netlist : %.4f V\n" (v net);
  Printf.printf "detector vout, re-imported deck : %.4f V\n\n" (v back);

  (* AC: loop gain of the variant-3 comparator, measured open-loop.
     The feedback path (Qb's base normally tied to the vfb node) is
     broken and driven externally at the balance point; the gain from
     that drive back to the vfb node is the regenerative loop gain. *)
  print_endline "comparator loop gain (feedback broken, pair biased at balance):";
  let b2 = B.create () in
  let net2 = b2.B.net in
  let proc = b2.B.proc in
  let model = proc.Cml_cells.Process.bjt in
  let vt2 = Cml_dft.Detector.ensure_vtest b2 3.7 in
  let cfg = Cml_dft.Readout.default_config in
  let _, upper = Cml_dft.Readout.thresholds cfg ~vtest:3.7 in
  let vfb = B.node b2 "vfb" and von = B.node b2 "von" and ce = B.node b2 "ce" in
  let vin_a = B.node b2 "vin_a" and vin_b = B.node b2 "vin_b" in
  let i_tail = proc.Cml_cells.Process.i_tail in
  let r_th = cfg.Cml_dft.Readout.fb_width /. i_tail in
  let r1 = r_th *. 3.7 /. upper in
  let r2 = r1 *. upper /. (3.7 -. upper) in
  N.bjt net2 ~name:"qa" ~model ~c:vfb ~b:vin_a ~e:ce ();
  N.bjt net2 ~name:"qb" ~model ~c:von ~b:vin_b ~e:ce ();
  N.resistor net2 ~name:"r1" vt2 vfb r1;
  N.resistor net2 ~name:"r2" vfb N.gnd r2;
  N.resistor net2 ~name:"rc" vt2 von proc.Cml_cells.Process.r_load;
  B.tail_source b2 ~name:"q3" ce;
  (* balance: both bases at the same level inside the window *)
  let balance = upper -. (i_tail /. 2.0 *. r_th) in
  N.vsource net2 ~name:"va" ~pos:vin_a ~neg:N.gnd (Cml_spice.Waveform.Dc balance);
  N.vsource net2 ~name:"vb" ~pos:vin_b ~neg:N.gnd (Cml_spice.Waveform.Dc balance);
  let sim = E.compile net2 in
  let freqs = [| 1e6; 100e6; 1e9; 10e9; 100e9 |] in
  let pts = Cml_spice.Ac.run sim ~source:"vb" ~freqs in
  List.iter
    (fun p ->
      let gain = Cml_spice.Ac.magnitude p vfb in
      Printf.printf "  %9.0f MHz : loop gain = %6.3f (%.1f dB)\n"
        (p.Cml_spice.Ac.freq /. 1e6)
        gain (20.0 *. Float.log10 gain))
    pts;
  print_endline "\n(a low-frequency loop gain above one makes the closed comparator";
  print_endline " regenerative - the origin of the Fig. 12 hysteresis; the gain";
  print_endline " rolling off past a few GHz bounds how fast the flag can latch)"
