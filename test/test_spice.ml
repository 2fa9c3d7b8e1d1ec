(* Validation of the cml_spice engine against hand-computable and
   analytically solvable circuits: resistive networks, RC transients,
   pn junctions, BJT configurations, sources and sweeps. *)

module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module W = Cml_spice.Waveform
module T = Cml_spice.Transient

let vt = Cml_spice.Models.boltzmann_vt

let check_close ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g (tol %.2g)" msg expected actual eps

(* ------------------------------------------------------------------ *)
(* Waveforms *)

let test_wave_dc () =
  check_close "dc" 2.5 (W.value (W.Dc 2.5) 123.0)

let test_wave_pulse_shape () =
  let p =
    W.Pulse { v1 = 0.0; v2 = 1.0; delay = 1.0; rise = 1.0; fall = 1.0; width = 2.0; period = 0.0 }
  in
  check_close "before" 0.0 (W.value p 0.5);
  check_close "mid-rise" 0.5 (W.value p 1.5);
  check_close "top" 1.0 (W.value p 3.0);
  check_close "mid-fall" 0.5 (W.value p 4.5);
  check_close "after" 0.0 (W.value p 6.0)

let test_wave_pulse_periodic () =
  let p =
    W.Pulse { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.1; fall = 0.1; width = 0.4; period = 1.0 }
  in
  check_close "cycle0 top" 1.0 (W.value p 0.3);
  check_close "cycle3 top" 1.0 (W.value p 3.3);
  check_close "cycle3 low" 0.0 (W.value p 3.8)

let test_wave_sine () =
  let s = W.Sine { offset = 1.0; ampl = 2.0; freq = 1.0; delay = 0.0; phase = 0.0 } in
  check_close "zero" 1.0 (W.value s 0.0);
  check_close "quarter" 3.0 (W.value s 0.25) ~eps:1e-9

let test_wave_pwl () =
  let p = W.Pwl [| (0.0, 0.0); (1.0, 2.0); (3.0, -2.0) |] in
  check_close "interior 1" 1.0 (W.value p 0.5);
  check_close "interior 2" 0.0 (W.value p 2.0);
  check_close "clamped left" 0.0 (W.value p (-5.0));
  check_close "clamped right" (-2.0) (W.value p 9.0)

let test_wave_breakpoints () =
  let p =
    W.Pulse { v1 = 0.0; v2 = 1.0; delay = 0.0; rise = 0.1; fall = 0.1; width = 0.4; period = 1.0 }
  in
  let bps = W.breakpoints p ~tstop:2.0 in
  Alcotest.(check bool) "contains first fall corner" true (List.exists (fun t -> Float.abs (t -. 0.5) < 1e-12) bps);
  Alcotest.(check bool) "sorted" true (List.sort compare bps = bps);
  Alcotest.(check bool) "inside range" true (List.for_all (fun t -> t > 0.0 && t < 2.0) bps)

let test_wave_square () =
  let s = W.square ~v_low:1.0 ~v_high:2.0 ~freq:1e6 ~edge:10e-9 () in
  check_close "high" 2.0 (W.value s 200e-9);
  check_close "low" 1.0 (W.value s 700e-9)

(* ------------------------------------------------------------------ *)
(* DC: resistive circuits *)

let test_divider () =
  let net = N.create () in
  let vin = N.node net "in" and vout = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:vin ~neg:N.gnd (W.Dc 10.0);
  N.resistor net ~name:"R1" vin vout 1000.0;
  N.resistor net ~name:"R2" vout N.gnd 3000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  check_close "divider out" 7.5 (E.voltage x vout);
  (* branch current of V1: current flows from + through source = -10/4k *)
  check_close "source current" (-0.0025) x.(E.branch_unknown sim "V1") ~eps:1e-9

let test_resistor_ladder () =
  (* 10-section ladder: voltage halves each section in the infinite
     limit; just verify against a dense hand solve via superposition:
     equal resistors in series, V(k) linear. *)
  let net = N.create () in
  let top = N.node net "n0" in
  N.vsource net ~name:"V1" ~pos:top ~neg:N.gnd (W.Dc 5.0);
  let rec build k prev =
    if k > 10 then ()
    else begin
      let nd = N.node net (Printf.sprintf "n%d" k) in
      N.resistor net ~name:(Printf.sprintf "R%d" k) prev nd 100.0;
      build (k + 1) nd
    end
  in
  build 1 top;
  N.resistor net ~name:"Rload" (N.node net "n10") N.gnd 100.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* series string of 11 equal resistors from 5 V to ground *)
  check_close "middle node" (5.0 *. 6.0 /. 11.0) (E.voltage x (N.node net "n5")) ~eps:1e-6

let test_current_source_into_resistor () =
  let net = N.create () in
  let out = N.node net "out" in
  N.isource net ~name:"I1" ~pos:N.gnd ~neg:out (W.Dc 1e-3);
  N.resistor net ~name:"R1" out N.gnd 2000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  check_close "I*R" 2.0 (E.voltage x out)

let test_vcvs_amplifier () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd (W.Dc 0.5);
  N.vcvs net ~name:"E1" ~pos:out ~neg:N.gnd ~cpos:inp ~cneg:N.gnd 10.0;
  N.resistor net ~name:"R1" out N.gnd 1000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  check_close "gain 10" 5.0 (E.voltage x out)

let test_vccs_transconductance () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd (W.Dc 1.0);
  N.vccs net ~name:"G1" ~pos:out ~neg:N.gnd ~cpos:inp ~cneg:N.gnd 1e-3;
  N.resistor net ~name:"R1" out N.gnd 1000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* 1 mA pulled out of "out" through the VCCS into ground: -1 V *)
  check_close "gm into load" (-1.0) (E.voltage x out)

(* ------------------------------------------------------------------ *)
(* DC: junctions *)

let test_diode_forward_drop () =
  let net = N.create () in
  let a = N.node net "a" in
  N.isource net ~name:"I1" ~pos:N.gnd ~neg:a (W.Dc 1e-3);
  N.diode net ~name:"D1" ~anode:a ~cathode:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let is = Cml_spice.Models.default_diode.Cml_spice.Models.d_is in
  let expected = vt *. log ((1e-3 /. is) +. 1.0) in
  check_close "vf at 1 mA" expected (E.voltage x a) ~eps:1e-4

let test_diode_reverse_blocks () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc (-5.0)) ;
  N.diode net ~name:"D1" ~anode:(N.node net "k") ~cathode:N.gnd ();
  N.resistor net ~name:"R1" a (N.node net "k") 1000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* reverse-biased: essentially all of -5 V appears across the diode *)
  Alcotest.(check bool) "cathode node close to source" true (E.voltage x (N.node net "k") < -4.9)

let test_bjt_vbe_at_half_ma () =
  (* the calibration target of the paper's process: VBE about 0.9 V
     at the 0.5 mA tail current *)
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.isource net ~name:"IB" ~pos:N.gnd ~neg:b (W.Dc 5e-6);
  N.bjt net ~name:"Q1" ~c ~b ~e:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let vbe = E.voltage x b in
  Alcotest.(check bool)
    (Printf.sprintf "vbe in [0.85, 0.95], got %g" vbe)
    true
    (vbe > 0.85 && vbe < 0.95)

let test_bjt_beta_relation () =
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.isource net ~name:"IB" ~pos:N.gnd ~neg:b (W.Dc 2e-6);
  N.bjt net ~name:"Q1" ~c ~b ~e:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  (* collector current = beta * base current; read it from VC's branch *)
  let ic = -.x.(E.branch_unknown sim "VC") in
  check_close "ic = bf * ib" (100.0 *. 2e-6) ic ~eps:2e-6

let test_emitter_follower () =
  let net = N.create () in
  let b = N.node net "b" and e = N.node net "e" and vcc = N.node net "vcc" in
  N.vsource net ~name:"VCC" ~pos:vcc ~neg:N.gnd (W.Dc 5.0);
  N.vsource net ~name:"VB" ~pos:b ~neg:N.gnd (W.Dc 2.0);
  N.bjt net ~name:"Q1" ~c:vcc ~b ~e ();
  N.resistor net ~name:"RE" e N.gnd 2000.0;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let ve = E.voltage x e in
  Alcotest.(check bool)
    (Printf.sprintf "ve about vb - vbe, got %g" ve)
    true
    (ve > 1.0 && ve < 1.25)

let test_differential_pair_steering () =
  (* the heart of CML: a 250 mV differential input fully steers the
     tail current to one side *)
  let net = N.create () in
  let vcc = N.node net "vcc" in
  let bp = N.node net "bp" and bn = N.node net "bn" in
  let op = N.node net "op" and on = N.node net "on" in
  let tail = N.node net "tail" in
  N.vsource net ~name:"VCC" ~pos:vcc ~neg:N.gnd (W.Dc 3.3);
  N.vsource net ~name:"VP" ~pos:bp ~neg:N.gnd (W.Dc 2.5);
  N.vsource net ~name:"VN" ~pos:bn ~neg:N.gnd (W.Dc 2.25);
  N.resistor net ~name:"RP" vcc op 500.0;
  N.resistor net ~name:"RN" vcc on 500.0;
  N.bjt net ~name:"QP" ~c:op ~b:bp ~e:tail ();
  N.bjt net ~name:"QN" ~c:on ~b:bn ~e:tail ();
  N.isource net ~name:"IT" ~pos:tail ~neg:N.gnd (W.Dc 0.5e-3);
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let vop = E.voltage x op and von = E.voltage x on in
  (* QP on: its collector drops by about I*R; QN off: collector at rail *)
  check_close "off side at rail" 3.3 von ~eps:0.01;
  check_close "on side dropped" (3.3 -. 0.25) vop ~eps:0.01

let test_multi_emitter_equals_parallel () =
  let build use_multi =
    let net = N.create () in
    let b = N.node net "b" and c = N.node net "c" in
    let e1 = N.node net "e1" and e2 = N.node net "e2" in
    N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
    N.vsource net ~name:"VB" ~pos:b ~neg:N.gnd (W.Dc 0.8);
    N.resistor net ~name:"R1" e1 N.gnd 1000.0;
    N.resistor net ~name:"R2" e2 N.gnd 1500.0;
    if use_multi then N.bjt_multi net ~name:"Q1" ~c ~b ~emitters:[| e1; e2 |] ()
    else begin
      N.bjt net ~name:"Q1a" ~c ~b ~e:e1 ();
      N.bjt net ~name:"Q1b" ~c ~b ~e:e2 ()
    end;
    let sim = E.compile net in
    let x = E.dc_operating_point sim in
    (E.voltage x e1, E.voltage x e2)
  in
  let m1, m2 = build true and p1, p2 = build false in
  check_close "e1 same" p1 m1 ~eps:1e-9;
  check_close "e2 same" p2 m2 ~eps:1e-9

(* ------------------------------------------------------------------ *)
(* Transient *)

let test_rc_charging () =
  (* R = 1k, C = 1 uF, step 0 -> 1 V: v(t) = 1 - exp(-t/RC) *)
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Pulse { v1 = 0.0; v2 = 1.0; delay = 1e-4; rise = 1e-6; fall = 1e-6; width = 1.0; period = 0.0 });
  N.resistor net ~name:"R1" inp out 1000.0;
  N.capacitor net ~name:"C1" out N.gnd 1e-6;
  let sim = E.compile net in
  let cfg = T.config ~tstop:5e-3 ~max_step:2e-5 () in
  let r = T.run sim net cfg in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
  let tau = 1e-3 in
  List.iter
    (fun mult ->
      let t = 1e-4 +. 1e-6 +. (mult *. tau) in
      let expected = 1.0 -. exp (-.(mult *. tau) /. tau) in
      check_close
        (Printf.sprintf "rc at %g tau" mult)
        expected
        (Cml_wave.Wave.value_at w t)
        ~eps:5e-3)
    [ 0.5; 1.0; 2.0; 3.0 ]

let test_rc_discharge_from_dc () =
  (* start charged via DC op, then input falls at t = 1 us *)
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Pulse { v1 = 2.0; v2 = 0.0; delay = 1e-6; rise = 1e-8; fall = 1e-8; width = 1.0; period = 0.0 });
  N.resistor net ~name:"R1" inp out 1000.0;
  N.capacitor net ~name:"C1" out N.gnd 1e-9;
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:6e-6 ~max_step:2e-8 ()) in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
  check_close "initially charged" 2.0 (Cml_wave.Wave.value_at w 0.5e-6) ~eps:1e-3;
  let tau = 1e-6 in
  check_close "after 1 tau" (2.0 *. exp (-1.0)) (Cml_wave.Wave.value_at w (1e-6 +. 1e-8 +. tau)) ~eps:1e-2

let test_sine_through_rc_lowpass_amplitude () =
  (* f = fc: amplitude should be 1/sqrt(2) of input, well past startup *)
  let rr = 1000.0 and cc = 1e-9 in
  let fc = 1.0 /. (2.0 *. Float.pi *. rr *. cc) in
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Sine { offset = 0.0; ampl = 1.0; freq = fc; delay = 0.0; phase = 0.0 });
  N.resistor net ~name:"R1" inp out rr;
  N.capacitor net ~name:"C1" out N.gnd cc;
  let sim = E.compile net in
  let period = 1.0 /. fc in
  let r = T.run sim net (T.config ~tstop:(10.0 *. period) ~max_step:(period /. 200.0) ()) in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
  let lo, hi = Cml_wave.Measure.extremes w ~t_from:(6.0 *. period) in
  check_close "attenuated amplitude" (1.0 /. sqrt 2.0) (0.5 *. (hi -. lo)) ~eps:0.02

let test_transient_records_initial_point () =
  let net = N.create () in
  let out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:out ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"R1" out N.gnd 1.0;
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:1e-6 ()) in
  check_close "t0" 0.0 r.T.times.(0);
  check_close "v0" 1.0 (T.node_trace r out).(0)

(* ------------------------------------------------------------------ *)
(* Sweeps *)

let test_sweep_linear_circuit () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd (W.Dc 0.0);
  N.resistor net ~name:"R1" inp out 1000.0;
  N.resistor net ~name:"R2" out N.gnd 1000.0;
  let values = Cml_numerics.Vec.linspace 0.0 4.0 9 in
  let sols = Cml_spice.Sweep.vsource_sweep net ~source:"V1" ~values in
  Array.iteri
    (fun i x -> check_close "half of source" (values.(i) /. 2.0) (E.voltage x out))
    sols

let test_sweep_diode_exponential () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 0.0);
  N.diode net ~name:"D1" ~anode:a ~cathode:N.gnd ();
  let values = [| 0.5; 0.6; 0.7; 0.8 |] in
  let sim, sols = Cml_spice.Sweep.vsource_sweep_full net ~source:"V1" ~values in
  let currents = Array.map (fun x -> -.x.(E.branch_unknown sim "V1")) sols in
  (* each 60 mV step multiplies the current by about 10 *)
  let ratio1 = currents.(1) /. currents.(0) in
  Alcotest.(check bool)
    (Printf.sprintf "exponential ratio about 48, got %g" ratio1)
    true
    (ratio1 > 30.0 && ratio1 < 70.0)

(* ------------------------------------------------------------------ *)
(* Engine odds and ends *)

let test_no_convergence_exception () =
  (* a floating node makes the DC system singular: every homotopy
     fails and the engine must say so rather than return garbage *)
  let net = N.create () in
  let a = N.node net "a" and b = N.node net "b" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.capacitor net ~name:"C1" a b 1e-12;
  N.capacitor net ~name:"C2" b N.gnd 1e-12;
  let sim = E.compile net in
  (match E.dc_operating_point sim with
  | _ -> Alcotest.fail "expected No_convergence"
  | exception E.No_convergence _ -> ())

let test_limexp_continuity () =
  let below = E.limexp 79.999 and above = E.limexp 80.001 in
  Alcotest.(check bool) "continuous and increasing" true (above > below && below > 0.0)

let test_pnjlim_passthrough () =
  (* small updates are untouched *)
  let v = E.pnjlim ~vnew:0.61 ~vold:0.6 ~nvt:vt ~vcrit:0.7 in
  check_close "passthrough" 0.61 v

let test_pnjlim_clamps () =
  let v = E.pnjlim ~vnew:5.0 ~vold:0.8 ~nvt:vt ~vcrit:0.7 in
  Alcotest.(check bool) "clamped far below 5" true (v < 1.0)

let test_bjt_report () =
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.isource net ~name:"IB" ~pos:N.gnd ~neg:b (W.Dc 5e-6);
  N.bjt net ~name:"Q1" ~c ~b ~e:N.gnd ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  match E.bjt_report sim x with
  | [ o ] ->
      Alcotest.(check string) "name" "Q1" o.E.q_name;
      check_close "ic = beta*ib" 5e-4 o.E.ic ~eps:2e-5;
      Alcotest.(check bool) "vbe around 0.9" true (o.E.vbe > 0.85 && o.E.vbe < 0.95);
      check_close "vce is the supply" 3.0 o.E.vce ~eps:1e-6
  | l -> Alcotest.failf "expected one transistor, got %d" (List.length l)

let test_bjt_report_multi_emitter () =
  let net = N.create () in
  let b = N.node net "b" and c = N.node net "c" in
  N.vsource net ~name:"VC" ~pos:c ~neg:N.gnd (W.Dc 3.0);
  N.vsource net ~name:"VB" ~pos:b ~neg:N.gnd (W.Dc 0.8);
  N.resistor net ~name:"R1" (N.node net "e1") N.gnd 1000.0;
  N.resistor net ~name:"R2" (N.node net "e2") N.gnd 1000.0;
  N.bjt_multi net ~name:"Q45" ~c ~b ~emitters:[| N.node net "e1"; N.node net "e2" |] ();
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let names = List.map (fun (o : E.bjt_op) -> o.E.q_name) (E.bjt_report sim x) in
  Alcotest.(check (list string)) "per-emitter entries" [ "Q45#e0"; "Q45#e1" ] names

(* ------------------------------------------------------------------ *)
(* Property tests *)

let prop_pulse_bounded =
  QCheck2.Test.make ~name:"pulse waveform stays within [v1, v2]" ~count:200
    QCheck2.Gen.(
      pair
        (pair (float_range (-5.0) 5.0) (float_range (-5.0) 5.0))
        (float_range 0.0 50.0))
    (fun ((v1, v2), t) ->
      let p =
        W.Pulse { v1; v2; delay = 1.0; rise = 2.0; fall = 3.0; width = 4.0; period = 15.0 }
      in
      let v = W.value p t in
      v >= Float.min v1 v2 -. 1e-12 && v <= Float.max v1 v2 +. 1e-12)

let prop_breakpoints_sorted_in_range =
  QCheck2.Test.make ~name:"breakpoints are sorted, unique and inside (0, tstop)" ~count:200
    QCheck2.Gen.(
      pair (float_range 0.01 2.0) (pair (float_range 0.0 1.0) (float_range 0.05 1.0)))
    (fun (tstop, (delay, period)) ->
      let p =
        W.Pulse
          {
            v1 = 0.0;
            v2 = 1.0;
            delay;
            rise = period /. 10.0;
            fall = period /. 10.0;
            width = period /. 3.0;
            period;
          }
      in
      let bps = W.breakpoints p ~tstop in
      let sorted = List.sort_uniq compare bps = bps in
      sorted && List.for_all (fun t -> t > 0.0 && t < tstop) bps)

let prop_resistive_network_maximum_principle =
  (* a network of positive resistors driven by one source: every node
     voltage lies between the source value and ground *)
  QCheck2.Test.make ~name:"maximum principle on random resistor networks" ~count:100
    QCheck2.Gen.(
      int_range 2 8 >>= fun n ->
      list_size (int_range 1 20)
        (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (float_range 10.0 10e3))
      >>= fun edges ->
      float_range 0.5 10.0 >>= fun vsrc -> return (n, edges, vsrc))
    (fun (n, edges, vsrc) ->
      let net = N.create () in
      let nodes = Array.init n (fun k -> N.node net (Printf.sprintf "n%d" k)) in
      N.vsource net ~name:"vs" ~pos:nodes.(0) ~neg:N.gnd (W.Dc vsrc);
      List.iteri
        (fun k (i, j, r) ->
          if i <> j then N.resistor net ~name:(Printf.sprintf "r%d" k) nodes.(i) nodes.(j) r)
        edges;
      (* tie every node weakly to ground so nothing floats *)
      Array.iteri
        (fun k nd -> N.resistor net ~name:(Printf.sprintf "leak%d" k) nd N.gnd 1e9)
        nodes;
      let x = E.dc_operating_point (E.compile net) in
      Array.for_all
        (fun nd ->
          let v = E.voltage x nd in
          v >= -.1e-6 && v <= vsrc +. 1e-6)
        nodes)

let prop_rc_matches_analytic =
  QCheck2.Test.make ~name:"random RC charge curves match the analytic exponential" ~count:10
    QCheck2.Gen.(pair (float_range 100.0 10e3) (float_range 1e-9 1e-7))
    (fun (rr, cc) ->
      let tau = rr *. cc in
      let net = N.create () in
      let inp = N.node net "in" and out = N.node net "out" in
      N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
        (W.Pulse
           {
             v1 = 0.0;
             v2 = 1.0;
             delay = tau /. 100.0;
             rise = tau /. 1000.0;
             fall = tau /. 1000.0;
             width = 1.0;
             period = 0.0;
           });
      N.resistor net ~name:"R1" inp out rr;
      N.capacitor net ~name:"C1" out N.gnd cc;
      let sim = E.compile net in
      let r = T.run sim net (T.config ~tstop:(4.0 *. tau) ~max_step:(tau /. 50.0) ()) in
      let w = Cml_wave.Wave.create r.T.times (T.node_trace r out) in
      let t0 = (tau /. 100.0) +. (tau /. 1000.0) in
      List.for_all
        (fun mult ->
          let expected = 1.0 -. exp (-.mult) in
          Float.abs (Cml_wave.Wave.value_at w (t0 +. (mult *. tau)) -. expected) < 0.02)
        [ 0.5; 1.0; 2.0; 3.0 ])

(* ------------------------------------------------------------------ *)
(* Device bypass and warm starts *)

let run_chain_transient ~options ~stages ~freq =
  let chain = Cml_cells.Chain.build ~stages ~freq () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile ~options net in
  let tstop = 2.0 /. freq in
  T.run sim net (T.config ~tstop ~max_step:(tstop /. 100.0) ())

(* The bypass tolerance is a tenth of the Newton convergence band, so
   replaying cached stamps may move any node by at most a few vntol —
   well inside 10 x vntol (1e-5 at the default 1e-6). *)
let prop_bypass_matches_full_eval =
  QCheck2.Test.make ~name:"device bypass leaves CML chain trajectories unchanged" ~count:4
    QCheck2.Gen.(pair (int_range 2 4) (float_range 5e8 2e9))
    (fun (stages, freq) ->
      let on = run_chain_transient ~options:E.default_options ~stages ~freq in
      let off =
        run_chain_transient ~options:{ E.default_options with E.bypass = false } ~stages ~freq
      in
      on.T.stats.T.bypassed_loads > 0
      && off.T.stats.T.bypassed_loads = 0
      && Array.length on.T.times = Array.length off.T.times
      &&
      let dev = ref 0.0 in
      Array.iteri
        (fun k row ->
          Array.iteri
            (fun i v -> dev := Float.max !dev (Float.abs (v -. off.T.data.(k).(i))))
            row)
        on.T.data;
      !dev <= 10.0 *. E.default_options.E.vntol)

(* On the c432 surrogate (949 unknowns) the refactorization costs more
   than an extra Newton iteration, so the default options also reuse
   older LU factors (chord steps); bypass off evaluates the exact
   linearisation at every iterate.  Every sample must stay within one
   Newton tolerance, vntol + reltol * |v|. *)
let test_bypass_c432_within_newton_tol () =
  let design = Cml_cells.Compile.compile ~freq:200e6 (Cml_logic.Bench_circuits.c432_surrogate ()) in
  let net = Cml_cells.Compile.netlist design in
  let run options =
    let sim = E.compile ~options net in
    let r = T.run sim net (T.config ~tstop:0.5e-9 ~max_step:10e-12 ()) in
    (r, (E.solver_stats sim).E.chord_steps)
  in
  let on, chord_on = run E.default_options in
  let off, chord_off = run { E.default_options with E.bypass = false } in
  Alcotest.(check bool) (Printf.sprintf "chord steps with bypass (%d)" chord_on) true (chord_on > 0);
  Alcotest.(check int) "no chord step without bypass" 0 chord_off;
  Alcotest.(check bool) "same time points" true (on.T.times = off.T.times);
  let o = E.default_options in
  let worst = ref 0.0 in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun i v ->
          let w = off.T.data.(k).(i) in
          let tol = o.E.vntol +. (o.E.reltol *. Float.max (Float.abs v) (Float.abs w)) in
          worst := Float.max !worst (Float.abs (v -. w) /. tol))
        row)
    on.T.data;
  Alcotest.(check bool) (Printf.sprintf "worst deviation %.3f Newton tolerances" !worst) true
    (!worst <= 1.0)

(* A fresh sim's bypass caches hold no stamps, so its first load must
   full-evaluate every junction device.  Every junction here sits at
   0 V, where a cache that started at 0 V would pass the bypass test
   and replay empty stamps; the second load does replay. *)
let test_first_load_full_evaluates () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 0.0);
  N.diode net ~name:"D1" ~anode:a ~cathode:N.gnd ();
  N.bjt net ~name:"Q1" ~c:a ~b:a ~e:N.gnd ();
  (* max_iter = 0: each Newton call is exactly one load *)
  let sim = E.compile ~options:{ E.default_options with E.max_iter = 0 } net in
  let x0 = Array.make (E.unknown_count sim) 0.0 in
  let load () = ignore (E.newton sim ~time:0.0 ~integ:E.Dcop x0) in
  load ();
  let s = E.solver_stats sim in
  Alcotest.(check int) "first load: both junction devices" 2 s.E.device_loads;
  Alcotest.(check int) "first load: no cache replayed" 0 s.E.bypassed_loads;
  load ();
  Alcotest.(check int) "second load: both caches replayed" 2 (E.solver_stats sim).E.bypassed_loads

let test_transient_stats_accounting () =
  let chain = Cml_cells.Chain.build ~stages:3 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:2e-9 ~max_step:10e-12 ()) in
  Alcotest.(check int) "one row per accepted step plus t = 0"
    (r.T.stats.T.accepted_steps + 1)
    (Array.length r.T.times);
  Alcotest.(check bool) "bypass fired" true (r.T.stats.T.bypassed_loads > 0);
  Alcotest.(check bool) "bypass is a strict subset of loads" true
    (r.T.stats.T.bypassed_loads < r.T.stats.T.device_loads);
  Alcotest.(check bool) "newton iterations counted" true (r.T.stats.T.newton_iters > 0);
  Alcotest.(check int) "no guide means no guided seeds" 0 r.T.stats.T.guided_seeds;
  Alcotest.(check int) "no guide means no cold fallbacks" 0 r.T.stats.T.cold_fallbacks;
  Alcotest.(check bool) "LTE rejections are a subset of rejections" true
    (r.T.stats.T.lte_rejections <= r.T.stats.T.rejected_steps)

let test_transient_guide_is_used () =
  let chain = Cml_cells.Chain.build ~stages:3 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 () in
  let nominal = T.run (E.compile net) net cfg in
  let warm = T.run ~guide:nominal (E.compile net) net cfg in
  Alcotest.(check bool) "guided seeds used" true (warm.T.stats.T.guided_seeds > 0);
  (* guided_seeds counts accepted steps only (plus the warm DC start),
     so a retried (LTE- or Newton-rejected) instant cannot inflate it
     past the step count *)
  Alcotest.(check bool) "guided seeds bounded by accepted steps + DC" true
    (warm.T.stats.T.guided_seeds <= warm.T.stats.T.accepted_steps + 1);
  Alcotest.(check bool) "cold fallbacks accounted separately" true
    (warm.T.stats.T.cold_fallbacks >= 0
    && warm.T.stats.T.cold_fallbacks <= warm.T.stats.T.accepted_steps + 1);
  Alcotest.(check int) "same grid as the cold run"
    (Array.length nominal.T.times)
    (Array.length warm.T.times);
  let dev = ref 0.0 in
  Array.iteri
    (fun k row ->
      Array.iteri
        (fun i v -> dev := Float.max !dev (Float.abs (v -. warm.T.data.(k).(i))))
        row)
    nominal.T.data;
  Alcotest.(check bool) "same trajectory as the cold run" true
    (!dev <= 10.0 *. E.default_options.E.vntol)

(* ------------------------------------------------------------------ *)
(* Streaming observers *)

let rc_net () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
    (W.Pulse { v1 = 0.0; v2 = 1.0; delay = 1e-8; rise = 1e-9; fall = 1e-9; width = 1.0; period = 0.0 });
  N.resistor net ~name:"R1" inp out 1000.0;
  N.capacitor net ~name:"C1" out N.gnd 1e-9;
  (net, out)

let test_observers_match_dense_rows () =
  let net, out = rc_net () in
  let sim = E.compile net in
  let idx = E.node_unknown out in
  let obs = T.observers [ ("out", idx) ] in
  let r = T.run ~observers:obs sim net (T.config ~tstop:1e-6 ~max_step:2e-8 ()) in
  let times, values = T.probe_samples obs "out" in
  Alcotest.(check int) "one sample per accepted step plus t = 0"
    (r.T.stats.T.accepted_steps + 1)
    (Array.length times);
  (* at record_every = 1 the streamed probe is bit-identical to the
     dense recording *)
  Alcotest.(check int) "same count as dense rows" (Array.length r.T.times) (Array.length times);
  let dense = T.node_trace r out in
  Array.iteri
    (fun k t ->
      if t <> r.T.times.(k) || values.(k) <> dense.(k) then
        Alcotest.failf "probe sample %d differs from dense row" k)
    times

let test_observers_record_every_no_alias () =
  let net, out = rc_net () in
  let sim = E.compile net in
  let idx = E.node_unknown out in
  let steps = ref 0 in
  let obs = T.observers ~on_step:(fun _ _ -> incr steps) [ ("out", idx) ] in
  let r = T.run ~observers:obs sim net (T.config ~tstop:1e-6 ~max_step:2e-8 ~record_every:4 ()) in
  (* the observer sees every accepted step even though the dense
     recorder keeps only every 4th row *)
  Alcotest.(check int) "probe length" (r.T.stats.T.accepted_steps + 1) (T.probe_length obs);
  Alcotest.(check int) "callback per accepted step" (T.probe_length obs) !steps;
  Alcotest.(check bool) "dense recorder thinned" true
    (Array.length r.T.times < T.probe_length obs);
  (* dense row j is the probe sample at stride 4 *)
  let times, values = T.probe_samples obs "out" in
  let dense = T.node_trace r out in
  Array.iteri
    (fun j t ->
      if j < Array.length r.T.times - 1 then begin
        (* the final dense row is the last accepted step whatever the
           stride, so only interior rows align to j * 4 *)
        if t <> times.(j * 4) || dense.(j) <> values.(j * 4) then
          Alcotest.failf "dense row %d is not probe sample %d" j (j * 4)
      end)
    r.T.times

let test_observers_validation_and_ground () =
  (match T.observers [ ("bad", -2) ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  let net, _ = rc_net () in
  let sim = E.compile net in
  let obs = T.observers [ ("gnd", -1) ] in
  let _ = T.run ~observers:obs sim net (T.config ~tstop:1e-7 ()) in
  let _, values = T.probe_samples obs "gnd" in
  Alcotest.(check bool) "ground probe reads zero" true
    (Array.for_all (fun v -> v = 0.0) values);
  (match T.probe_samples obs "missing" with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ())

let prop_observer_parity_with_dense =
  QCheck2.Test.make ~name:"streamed probes equal dense rows at the record_every stride" ~count:10
    QCheck2.Gen.(triple (float_range 100.0 10e3) (float_range 1e-9 1e-7) (int_range 1 5))
    (fun (rr, cc, every) ->
      let tau = rr *. cc in
      let net = N.create () in
      let inp = N.node net "in" and out = N.node net "out" in
      N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
        (W.Pulse
           {
             v1 = 0.0;
             v2 = 1.0;
             delay = tau /. 100.0;
             rise = tau /. 1000.0;
             fall = tau /. 1000.0;
             width = 1.0;
             period = 0.0;
           });
      N.resistor net ~name:"R1" inp out rr;
      N.capacitor net ~name:"C1" out N.gnd cc;
      let sim = E.compile net in
      let obs = T.observers [ ("in", E.node_unknown inp); ("out", E.node_unknown out) ] in
      let r =
        T.run ~observers:obs sim net
          (T.config ~tstop:(4.0 *. tau) ~max_step:(tau /. 50.0) ~record_every:every ())
      in
      T.probe_length obs = r.T.stats.T.accepted_steps + 1
      && List.for_all
           (fun (nd, name) ->
             let times, values = T.probe_samples obs name in
             let dense = T.node_trace r nd in
             let rows = Array.length r.T.times in
             (* every interior dense row j is the probe sample at
                j * every; the final dense row is the last accepted
                step regardless of stride *)
             let ok = ref true in
             for j = 0 to rows - 2 do
               if r.T.times.(j) <> times.(j * every) || dense.(j) <> values.(j * every) then
                 ok := false
             done;
             !ok)
           [ (inp, "in"); (out, "out") ])

let test_transient_incompatible_guide_ignored () =
  (* a guide from a different circuit (different unknown count) must
     be ignored, not crash the run *)
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"R1" a N.gnd 1e3;
  let small = T.run (E.compile net) net (T.config ~tstop:1e-9 ()) in
  let chain = Cml_cells.Chain.build ~stages:2 ~freq:1e9 () in
  let cnet = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let r = T.run ~guide:small (E.compile cnet) cnet (T.config ~tstop:1e-9 ~max_step:10e-12 ()) in
  Alcotest.(check int) "guide silently dropped" 0 r.T.stats.T.guided_seeds;
  Alcotest.(check int) "a dropped guide is not a cold fallback" 0 r.T.stats.T.cold_fallbacks;
  Alcotest.(check bool) "run still completes" true (Array.length r.T.times > 10)

(* ------------------------------------------------------------------ *)
(* Batched transient *)

let test_run_batch_matches_scalar () =
  let chain = Cml_cells.Chain.build ~stages:2 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 ~record_every:0 () in
  let out = Cml_cells.Chain.output chain 2 in
  let idx = E.node_unknown out.Cml_cells.Builder.p in
  let probe () = T.observers [ ("out", idx) ] in
  let scalar_obs = probe () in
  let scalar = T.run ~observers:scalar_obs (E.compile net) net cfg in
  let lane_obs = Array.init 3 (fun _ -> probe ()) in
  let lanes = Array.map (fun obs -> (E.compile net, Some obs)) lane_obs in
  let results = T.run_batch lanes net cfg in
  let stats =
    Array.map
      (function
        | T.Lane_done r -> r.T.stats
        | T.Lane_failed msg -> Alcotest.failf "lane failed: %s" msg
        | T.Lane_incompatible -> Alcotest.fail "lane incompatible")
      results
  in
  (* a lane is exactly a scalar run of its sim: same step grid, same
     samples, same solver work *)
  let ts, vs = T.probe_samples scalar_obs "out" in
  for lane = 0 to 2 do
    let t, v = T.probe_samples lane_obs.(lane) "out" in
    Alcotest.(check (array (float 0.0)))
      (Printf.sprintf "lane %d times bit-identical to the scalar run" lane)
      ts t;
    Alcotest.(check (array (float 0.0)))
      (Printf.sprintf "lane %d samples bit-identical to the scalar run" lane)
      vs v;
    Alcotest.(check bool)
      (Printf.sprintf "lane %d stats equal the scalar run's" lane)
      true
      (stats.(lane) = scalar.T.stats)
  done

let test_run_batch_shares_symbolic () =
  (* K lanes of one design pay for one symbolic analysis: lane
     0 factors, the others adopt its ordering and patterns through the
     batch donor path, and the adoption must not change the
     trajectory *)
  let chain = Cml_cells.Chain.build ~stages:2 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 ~record_every:0 () in
  let out = Cml_cells.Chain.output chain 2 in
  let idx = E.node_unknown out.Cml_cells.Builder.p in
  let probe () = T.observers [ ("out", idx) ] in
  let scalar_obs = probe () in
  ignore
    (T.run ~observers:scalar_obs (E.compile net) net
       (T.config ~tstop:2e-9 ~max_step:10e-12 ()));
  let lane_obs = Array.init 3 (fun _ -> probe ()) in
  let sims = Array.map (fun _ -> E.compile net) lane_obs in
  let lanes = Array.mapi (fun i obs -> (sims.(i), Some obs)) lane_obs in
  Array.iter
    (function
      | T.Lane_done _ -> ()
      | T.Lane_failed msg -> Alcotest.failf "lane failed: %s" msg
      | T.Lane_incompatible -> Alcotest.fail "lane incompatible")
    (T.run_batch lanes net cfg);
  let stats i = E.solver_stats sims.(i) in
  Alcotest.(check bool) "lane 0 did the symbolic analysis" true
    ((stats 0).E.symbolic_factorizations >= 1);
  Alcotest.(check int) "lane 0 adopted nothing" 0 (stats 0).E.shared_symbolic;
  for i = 1 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "lane %d adopted the donor's symbolic" i)
      1 (stats i).E.shared_symbolic;
    Alcotest.(check int)
      (Printf.sprintf "lane %d ran no symbolic of its own" i)
      0 (stats i).E.symbolic_factorizations
  done;
  let _, v0 = T.probe_samples lane_obs.(0) "out" in
  for lane = 1 to 2 do
    let _, v = T.probe_samples lane_obs.(lane) "out" in
    Alcotest.(check (array (float 0.0)))
      (Printf.sprintf "lane %d bit-identical to lane 0" lane)
      v0 v
  done;
  let _, vs = T.probe_samples scalar_obs "out" in
  let last a = a.(Array.length a - 1) in
  Alcotest.(check bool) "final probe value matches the per-lane-symbolic run" true
    (Float.abs (last v0 -. last vs) <= 1e-3)

let test_run_batch_early_retire () =
  (* three layout-compatible lanes; the middle one carries a diode and
     an iteration budget too small for its turn-on, so it must retire
     mid-batch while the others run to tstop *)
  let mk_lane with_diode =
    let net = N.create () in
    let inp = N.node net "in" and out = N.node net "out" in
    N.vsource net ~name:"V1" ~pos:inp ~neg:N.gnd
      (W.Pulse
         { v1 = 0.0; v2 = 1.0; delay = 1e-9; rise = 1e-10; fall = 1e-10; width = 1.0; period = 0.0 });
    N.resistor net ~name:"R1" inp out 1000.0;
    N.capacitor net ~name:"C1" out N.gnd 1e-12;
    if with_diode then N.diode net ~name:"D1" ~anode:out ~cathode:N.gnd ();
    net
  in
  let compile ~max_iter net = E.compile ~options:{ E.default_options with E.max_iter } net in
  let nets = [| mk_lane false; mk_lane true; mk_lane false |] in
  let lanes =
    Array.mapi
      (fun i net -> ((if i = 1 then compile ~max_iter:1 net else E.compile net), None))
      nets
  in
  let cfg = T.config ~tstop:10e-9 ~max_step:2e-10 ~min_step:1e-11 ~lte_control:false ~record_every:0 () in
  let results = T.run_batch lanes nets.(0) cfg in
  (match results.(1) with
  | T.Lane_failed _ -> ()
  | T.Lane_done _ -> Alcotest.fail "starved lane unexpectedly completed"
  | T.Lane_incompatible -> Alcotest.fail "lane reported incompatible");
  List.iter
    (fun lane ->
      match results.(lane) with
      | T.Lane_done r ->
          Alcotest.(check bool)
            (Printf.sprintf "lane %d ran to tstop" lane)
            true
            (r.T.stats.T.accepted_steps > 10)
      | T.Lane_failed msg -> Alcotest.failf "healthy lane %d failed: %s" lane msg
      | T.Lane_incompatible -> Alcotest.failf "healthy lane %d incompatible" lane)
    [ 0; 2 ]

let test_run_batch_incompatible_lane () =
  (* a lane whose unknown layout differs from lane 0's is reported
     without being run, and does not disturb the compatible lanes *)
  let chain = Cml_cells.Chain.build ~stages:2 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let small = N.create () in
  let a = N.node small "a" in
  N.vsource small ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor small ~name:"R1" a N.gnd 1e3;
  let cfg = T.config ~tstop:1e-9 ~max_step:10e-12 ~record_every:0 () in
  let lanes = [| (E.compile net, None); (E.compile small, None); (E.compile net, None) |] in
  match T.run_batch lanes net cfg with
  | [| T.Lane_done _; T.Lane_incompatible; T.Lane_done _ |] -> ()
  | results ->
      Array.iteri
        (fun i r ->
          Printf.printf "lane %d: %s\n" i
            (match r with
            | T.Lane_done _ -> "done"
            | T.Lane_failed m -> "failed " ^ m
            | T.Lane_incompatible -> "incompatible"))
        results;
      Alcotest.fail "unexpected lane outcomes"

(* A NaN must reject at every acceptance predicate: a comparison with
   NaN is false, so a [d > tol] rejection test lets it through. *)
let test_acceptance_rejects_nan () =
  let net = N.create () in
  let a = N.node net "a" in
  N.isource net ~name:"I1" ~pos:N.gnd ~neg:a (W.Dc 1e-3);
  N.diode net ~name:"D1" ~anode:a ~cathode:N.gnd ();
  let sim = E.compile ~options:{ E.default_options with E.max_iter = 5 } net in
  let x = E.dc_operating_point sim in
  let poisoned = Array.copy x in
  poisoned.(0) <- nan;
  Alcotest.(check bool) "converged accepts a fixed point" true (E.converged sim x x);
  Alcotest.(check bool) "converged rejects a NaN update" false (E.converged sim x poisoned);
  Alcotest.(check bool) "converged rejects a NaN iterate" false (E.converged sim poisoned x);
  let opts = E.options sim in
  Alcotest.(check bool) "lte_ok accepts the prediction itself" true (T.lte_ok opts x x);
  Alcotest.(check bool) "lte_ok rejects a NaN corrector" false (T.lte_ok opts x poisoned);
  Alcotest.(check bool) "lte_ok rejects a NaN prediction" false (T.lte_ok opts poisoned x);
  (* the junction-error max must carry the NaN, not skip it *)
  let r = Cml_spice.Introspect.create () in
  E.set_introspect sim (Some r);
  Alcotest.(check bool) "Newton from a NaN iterate gives up" true
    (E.newton sim ~time:0.0 ~integ:E.Dcop poisoned = None);
  let rows = Cml_spice.Introspect.newton_rows r in
  Alcotest.(check bool) "iterations were recorded" true (rows <> []);
  List.iter
    (fun row ->
      Alcotest.(check bool) "junction error reads NaN" true
        (Float.is_nan row.Cml_spice.Introspect.nr_jerr))
    rows

(* An infinite entry makes its own tolerance infinite (reltol * |x|),
   and |inf - x| <= inf holds: the predicates need their explicit
   finiteness test to reject it. *)
let test_acceptance_rejects_infinite () =
  let net = N.create () in
  let a = N.node net "a" in
  N.isource net ~name:"I1" ~pos:N.gnd ~neg:a (W.Dc 1e-3);
  N.resistor net ~name:"R1" a N.gnd 1e3;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let opts = E.options sim in
  List.iter
    (fun v ->
      let poisoned = Array.copy x in
      poisoned.(0) <- v;
      let what = Printf.sprintf "%g" v in
      Alcotest.(check bool) ("converged rejects an update to " ^ what) false
        (E.converged sim x poisoned);
      Alcotest.(check bool) ("converged rejects an iterate at " ^ what) false
        (E.converged sim poisoned x);
      Alcotest.(check bool) ("lte_ok rejects a corrector at " ^ what) false
        (T.lte_ok opts x poisoned);
      Alcotest.(check bool) ("lte_ok rejects a prediction at " ^ what) false
        (T.lte_ok opts poisoned x))
    [ infinity; neg_infinity ]

(* A c432 operating point whose Newton run takes the unstable-pivot
   fallback: the benchmark's c432-op workload at seed 1, rep 3 (inputs
   2.. held at the levels below, perturbation seed 100003).  The
   fallback re-pivots in the kept amd column order, and the point it
   reaches must be a fixed point of a warm DC solve. *)
let test_c432_pivot_fallback () =
  let circuit = Cml_logic.Bench_circuits.c432_surrogate () in
  let levels = "01000011010100001110111101101010001" in
  let stimuli =
    List.mapi
      (fun i (name, _) ->
        ( name,
          if i = 0 then Cml_cells.Compile.Toggle else Cml_cells.Compile.Const (levels.[i - 1] = '1')
        ))
      circuit.Cml_logic.Circuit.inputs
  in
  let design = Cml_cells.Compile.compile ~freq:200e6 ~stimuli circuit in
  let net = Cml_defects.Variation.perturb ~seed:100003 (Cml_cells.Compile.netlist design) in
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let s = E.solver_stats sim in
  Alcotest.(check bool) "an unstable pivot forced a fallback" true
    (s.E.fallback_unstable_pivot > 0);
  Alcotest.(check string) "factored in amd order" "amd" s.E.lu_ordering;
  let x' = E.dc_from sim x in
  let o = E.options sim in
  for i = 0 to E.node_unknowns sim - 1 do
    let tol = o.E.vntol +. (o.E.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i))) in
    if Float.abs (x'.(i) -. x.(i)) > 10.0 *. tol then
      Alcotest.failf "dc_from moved node %d by %g V (10 tolerances: %g V)" i
        (Float.abs (x'.(i) -. x.(i)))
        (10.0 *. tol)
  done

(* One non-finite value reaching a stamp — a VCCS gain, a source
   value, a capacitance under a transient companion model: Newton must
   give up and the DC homotopies must raise, never
   hand back a non-finite vector. *)
let prop_non_finite_stamps_rejected =
  QCheck2.Test.make ~name:"non-finite stamps never converge" ~count:60
    ~print:(fun (target, bad, _) -> Printf.sprintf "%s=%g" target bad)
    QCheck2.Gen.(
      triple
        (oneofl [ "gain"; "vsource"; "isource"; "capacitance" ])
        (oneofl [ nan; infinity; neg_infinity ])
        (float_range 0.5 2.0))
    (fun (target, bad, v) ->
      (* a non-positive capacitance is dropped at compile, like every
         absent junction capacitance: -inf never reaches a stamp *)
      QCheck2.assume (not (target = "capacitance" && bad < 0.0));
      let value t good = if t = target then bad else good in
      let net = N.create () in
      let a = N.node net "a" and b = N.node net "b" and c = N.node net "c" in
      N.vsource net ~name:"V1" ~pos:a ~neg:N.gnd (W.Dc (value "vsource" v));
      N.resistor net ~name:"R1" a b 1e3;
      N.resistor net ~name:"R2" b N.gnd 2e3;
      N.resistor net ~name:"R3" b c 5e2;
      N.diode net ~name:"D1" ~anode:c ~cathode:N.gnd ();
      N.capacitor net ~name:"C1" c N.gnd (value "capacitance" 1e-12);
      N.isource net ~name:"I1" ~pos:N.gnd ~neg:b (W.Dc (value "isource" 1e-4));
      N.vccs net ~name:"G1" ~pos:b ~neg:c ~cpos:a ~cneg:c (value "gain" 1e-3);
      let sim = E.compile net in
      let finite = Array.for_all Float.is_finite in
      let integ =
        if target = "capacitance" then E.Tran { geq = 1e10; trap = false } else E.Dcop
      in
      let newton_gives_up =
        E.newton sim ~time:0.0 ~integ (Array.make (E.unknown_count sim) 0.0) = None
      in
      let dc_ok =
        match E.dc_operating_point sim with
        | x -> target = "capacitance" && finite x (* capacitors are open at DC *)
        | exception E.No_convergence _ -> target <> "capacitance"
      in
      newton_gives_up && dc_ok)

(* ------------------------------------------------------------------ *)
(* Re-valued sims *)

type rdev = R of float | C of float | D | Q | I of float

(* A random netlist on nodes [1 .. n] (plus ground) driven by a pulsed
   source on node 1, every node leaking to ground so nothing floats. *)
let random_netlist (n, devs, v) =
  let net = N.create () in
  let node k = if k = 0 then N.gnd else N.node net (Printf.sprintf "n%d" k) in
  N.vsource net ~name:"v1" ~pos:(node 1) ~neg:N.gnd
    (W.Pulse
       {
         v1 = 0.0;
         v2 = v;
         delay = 0.2e-9;
         rise = 0.1e-9;
         fall = 0.1e-9;
         width = 1.0;
         period = 0.0;
       });
  List.iteri
    (fun k (d, i, j, l) ->
      let name = Printf.sprintf "d%d" k and i = node i and j = node j and l = node l in
      match d with
      | R r -> N.resistor net ~name i j r
      | C c -> N.capacitor net ~name i j c
      | D -> N.diode net ~name ~anode:i ~cathode:j ()
      | Q -> N.bjt net ~name ~c:i ~b:j ~e:l ()
      | I a -> N.isource net ~name ~pos:i ~neg:j (W.Dc a))
    devs;
  for k = 1 to n do
    N.resistor net ~name:(Printf.sprintf "leak%d" k) (node k) N.gnd 1e5
  done;
  net

let gen_random_netlist =
  QCheck2.Gen.(
    int_range 1 5 >>= fun n ->
    let dev =
      oneof
        [
          map (fun r -> R r) (float_range 100.0 10e3);
          map (fun c -> C c) (float_range 1e-13 1e-11);
          return D;
          return Q;
          map (fun a -> I a) (float_range 1e-5 1e-3);
        ]
    in
    let nd = int_range 0 n in
    list_size (int_range 1 10) (quad dev nd nd nd) >>= fun devs ->
    float_range 0.5 3.0 >>= fun v -> return (n, devs, v))

let same_floats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* DC from the nominal solution, then a short transient from there:
   the solution, the samples (or the failure) and every solver
   counter. *)
let dc_and_transient sim net x0 =
  match E.dc_from sim x0 with
  | exception E.No_convergence m -> Error m
  | x ->
      let dc_stats = E.solver_stats sim in
      let tran =
        match T.run ~x0:x sim net (T.config ~tstop:1e-9 ~max_step:0.1e-9 ()) with
        | r -> Ok (r.T.times, r.T.data)
        | exception E.No_convergence m -> Error m
      in
      Ok (x, dc_stats, tran, E.solver_stats sim)

let same_transients a b =
  match (a, b) with
  | Ok (ta, wa), Ok (tb, wb) ->
      same_floats ta tb && Array.length wa = Array.length wb && Array.for_all2 same_floats wa wb
  | Error ma, Error mb -> ma = mb
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_revalue_matches_compile =
  QCheck2.Test.make ~name:"revalue is bit-identical to compile + share_symbolic" ~count:60
    QCheck2.Gen.(pair gen_random_netlist (pair bool small_nat))
    (fun (spec, (scale, seed)) ->
      let net = random_netlist spec in
      let nominal = E.compile net in
      match E.dc_operating_point nominal with
      | exception E.No_convergence _ -> QCheck2.assume_fail ()
      | x0 -> (
          let varied =
            if scale then
              N.map_devices net (function
                | N.Resistor r -> N.Resistor { r with r = r.r *. (1.0 +. (0.01 *. float seed)) }
                | d -> d)
            else Cml_defects.Variation.perturb ~seed net
          in
          let fresh = E.compile varied in
          E.share_symbolic ~donor:nominal fresh;
          let revalued = E.revalue nominal varied in
          match (dc_and_transient fresh varied x0, dc_and_transient revalued varied x0) with
          | Error ma, Error mb -> ma = mb
          | Ok (xa, da, wa, sa), Ok (xb, db, wb, sb) ->
              same_floats xa xb && compare da db = 0 && same_transients wa wb && compare sa sb = 0
          | Ok _, Error _ | Error _, Ok _ -> false))

(* Anything but a value change is rejected, naming the first compiled
   device that differs. *)
let test_revalue_rejects_topology () =
  let build ?(c = 1e-12) ?(moved = false) ?(extra = false) ?(node = false) () =
    let net = N.create () in
    let a = N.node net "a" and b = N.node net "b" and o = N.node net "o" in
    N.vsource net ~name:"v1" ~pos:a ~neg:N.gnd (W.Dc 1.0);
    N.resistor net ~name:"r1" a b 1e3;
    N.diode net ~name:"d1" ~anode:b ~cathode:(if moved then o else N.gnd) ();
    N.capacitor net ~name:"c1" b N.gnd c;
    N.resistor net ~name:"r2" b o 1e3;
    N.resistor net ~name:"r3" o N.gnd 1e3;
    if extra then N.resistor net ~name:"r4" a o 1e3;
    if node then ignore (N.node net "spare");
    net
  in
  let like = E.compile (build ()) in
  ignore (E.dc_operating_point like);
  let rejects name message net =
    Alcotest.check_raises name (Invalid_argument message) (fun () -> ignore (E.revalue like net))
  in
  (* compiled devices: v1, r1, d1 and its junction capacitance, c1,
     r2, r3 *)
  let differs di this layout =
    Printf.sprintf
      "Engine.revalue: compiled device %d (%s) differs from the layout's (%s) in kind or terminals"
      di this layout
  in
  rejects "a moved terminal" (differs 2 "diode" "diode") (build ~moved:true ());
  rejects "an added device" (differs 7 "resistor" "none") (build ~extra:true ());
  rejects "a capacitance set to 0" (differs 4 "resistor" "capacitor") (build ~c:0.0 ());
  rejects "a different node count"
    "Engine.revalue: 4 node and 5 total unknowns, the layout has 3 and 4"
    (build ~node:true ());
  (* the values alone may change *)
  let sim = E.revalue like (build ~c:2e-12 ()) in
  ignore (E.dc_operating_point sim);
  Alcotest.(check int) "the layout's analysis adopted" 1 (E.solver_stats sim).E.shared_symbolic

let () =
  Alcotest.run "spice"
    [
      ( "waveform",
        [
          Alcotest.test_case "dc" `Quick test_wave_dc;
          Alcotest.test_case "pulse shape" `Quick test_wave_pulse_shape;
          Alcotest.test_case "pulse periodic" `Quick test_wave_pulse_periodic;
          Alcotest.test_case "sine" `Quick test_wave_sine;
          Alcotest.test_case "pwl" `Quick test_wave_pwl;
          Alcotest.test_case "breakpoints" `Quick test_wave_breakpoints;
          Alcotest.test_case "square helper" `Quick test_wave_square;
        ] );
      ( "dc-linear",
        [
          Alcotest.test_case "divider" `Quick test_divider;
          Alcotest.test_case "resistor ladder" `Quick test_resistor_ladder;
          Alcotest.test_case "current source" `Quick test_current_source_into_resistor;
          Alcotest.test_case "vcvs amplifier" `Quick test_vcvs_amplifier;
          Alcotest.test_case "vccs" `Quick test_vccs_transconductance;
        ] );
      ( "dc-nonlinear",
        [
          Alcotest.test_case "diode forward drop" `Quick test_diode_forward_drop;
          Alcotest.test_case "diode reverse blocks" `Quick test_diode_reverse_blocks;
          Alcotest.test_case "bjt vbe at 0.5 mA" `Quick test_bjt_vbe_at_half_ma;
          Alcotest.test_case "bjt beta relation" `Quick test_bjt_beta_relation;
          Alcotest.test_case "emitter follower" `Quick test_emitter_follower;
          Alcotest.test_case "differential pair steering" `Quick test_differential_pair_steering;
          Alcotest.test_case "multi-emitter = parallel" `Quick test_multi_emitter_equals_parallel;
        ] );
      ( "transient",
        [
          Alcotest.test_case "rc charging" `Quick test_rc_charging;
          Alcotest.test_case "rc discharge from dc" `Quick test_rc_discharge_from_dc;
          Alcotest.test_case "rc lowpass at fc" `Quick test_sine_through_rc_lowpass_amplitude;
          Alcotest.test_case "initial point recorded" `Quick test_transient_records_initial_point;
          Alcotest.test_case "stats accounting" `Slow test_transient_stats_accounting;
          Alcotest.test_case "guide warm-starts steps" `Slow test_transient_guide_is_used;
          Alcotest.test_case "incompatible guide ignored" `Quick
            test_transient_incompatible_guide_ignored;
          Alcotest.test_case "batch matches scalar" `Slow test_run_batch_matches_scalar;
          Alcotest.test_case "batch shares symbolic" `Quick test_run_batch_shares_symbolic;
          Alcotest.test_case "batch early retire" `Quick test_run_batch_early_retire;
          Alcotest.test_case "batch incompatible lane" `Quick test_run_batch_incompatible_lane;
        ] );
      ( "observers",
        [
          Alcotest.test_case "probes match dense rows" `Quick test_observers_match_dense_rows;
          Alcotest.test_case "record_every does not alias probes" `Quick
            test_observers_record_every_no_alias;
          Alcotest.test_case "validation and ground probe" `Quick
            test_observers_validation_and_ground;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "linear sweep" `Quick test_sweep_linear_circuit;
          Alcotest.test_case "diode exponential" `Quick test_sweep_diode_exponential;
        ] );
      ( "engine",
        [
          Alcotest.test_case "no convergence raises" `Quick test_no_convergence_exception;
          Alcotest.test_case "limexp continuity" `Quick test_limexp_continuity;
          Alcotest.test_case "pnjlim passthrough" `Quick test_pnjlim_passthrough;
          Alcotest.test_case "pnjlim clamps" `Quick test_pnjlim_clamps;
          Alcotest.test_case "bjt operating-point report" `Quick test_bjt_report;
          Alcotest.test_case "report on dual emitters" `Quick test_bjt_report_multi_emitter;
          Alcotest.test_case "acceptance rejects NaN" `Quick test_acceptance_rejects_nan;
          Alcotest.test_case "acceptance rejects infinities" `Quick
            test_acceptance_rejects_infinite;
          Alcotest.test_case "c432 pivot fallback re-pivots" `Quick test_c432_pivot_fallback;
          Alcotest.test_case "first load full-evaluates every junction" `Quick
            test_first_load_full_evaluates;
          Alcotest.test_case "revalue rejects a changed topology" `Quick
            test_revalue_rejects_topology;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_pulse_bounded;
            prop_breakpoints_sorted_in_range;
            prop_resistive_network_maximum_principle;
            prop_rc_matches_analytic;
            prop_observer_parity_with_dense;
            prop_bypass_matches_full_eval;
            prop_non_finite_stamps_rejected;
            prop_revalue_matches_compile;
          ]
        @ [
            Alcotest.test_case "device bypass keeps c432 within one Newton tolerance" `Slow
              test_bypass_c432_within_newton_tol;
          ] );
    ]
