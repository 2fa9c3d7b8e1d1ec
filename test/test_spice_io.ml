(* Tests for the SPICE-flavoured netlist serialisation (Netlist_io),
   the complex dense solver (Cdense) and the AC small-signal analysis,
   validated against analytic transfer functions. *)

module N = Cml_spice.Netlist
module Io = Cml_spice.Netlist_io
module E = Cml_spice.Engine
module W = Cml_spice.Waveform

let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1.0 +. Float.abs expected) then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

(* ------------------------------------------------------------------ *)
(* value parsing / formatting *)

let test_parse_value_suffixes () =
  let cases =
    [
      ("2.2k", 2200.0);
      ("10p", 1e-11);
      ("3meg", 3e6);
      ("1u", 1e-6);
      ("500", 500.0);
      ("4e3", 4000.0);
      ("-0.25", -0.25);
      ("95f", 95e-15);
      ("1.5n", 1.5e-9);
      ("2g", 2e9);
      ("7t", 7e12);
      ("3m", 3e-3);
    ]
  in
  List.iter
    (fun (s, v) ->
      match Io.parse_value s with
      | Some got -> check_close ~eps:1e-12 s v got
      | None -> Alcotest.failf "failed to parse %S" s)
    cases

let test_parse_value_garbage () =
  List.iter
    (fun s -> Alcotest.(check (option (float 0.0))) s None (Io.parse_value s))
    [ "abc"; ""; "1x"; "k2"; "--3"; "inf"; "nan"; "1e999"; "-1e999"; "1e300t" ]

let test_format_value_roundtrip () =
  List.iter
    (fun v ->
      match Io.parse_value (Io.format_value v) with
      | Some got -> check_close ~eps:1e-9 (Io.format_value v) v got
      | None -> Alcotest.failf "unparseable formatting of %g: %S" v (Io.format_value v))
    [ 500.0; 2200.0; 1e-11; 3e6; 95e-15; 0.0; -4000.0; 0.8986; 1.0 /. 3.0 ]

let prop_value_roundtrip =
  QCheck2.Test.make ~name:"format_value/parse_value round-trip" ~count:300
    QCheck2.Gen.(float_range (-1e13) 1e13)
    (fun v ->
      match Io.parse_value (Io.format_value v) with
      | Some got -> Float.abs (got -. v) <= 1e-9 *. (1.0 +. Float.abs v)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* netlist round-trip *)

let approx a b = Float.abs (a -. b) <= 1e-12 *. (1.0 +. Float.abs a)

let waves_approx (wa : W.t) (wb : W.t) =
  match (wa, wb) with
  | W.Dc a, W.Dc b -> approx a b
  | ( W.Pulse { v1; v2; delay; rise; fall; width; period },
      W.Pulse
        {
          v1 = v1';
          v2 = v2';
          delay = delay';
          rise = rise';
          fall = fall';
          width = width';
          period = period';
        } ) ->
      approx v1 v1' && approx v2 v2' && approx delay delay' && approx rise rise'
      && approx fall fall' && approx width width' && approx period period'
  | ( W.Sine { offset; ampl; freq; delay; phase },
      W.Sine { offset = offset'; ampl = ampl'; freq = freq'; delay = delay'; phase = phase' } )
    ->
      approx offset offset' && approx ampl ampl' && approx freq freq' && approx delay delay'
      && approx phase phase'
  | W.Pwl a, W.Pwl b ->
      Array.length a = Array.length b
      && Array.for_all2 (fun (t1, v1) (t2, v2) -> approx t1 t2 && approx v1 v2) a b
  | (W.Dc _ | W.Pulse _ | W.Sine _ | W.Pwl _), _ -> false

let netlists_equal a b =
  let canon net =
    List.map
      (fun d ->
        let terminals =
          List.map (fun (t, nd) -> (t, N.node_name net nd)) (N.device_terminals d)
        in
        (N.device_name d, terminals, d))
      (N.devices net)
  in
  let da = canon a and db = canon b in
  List.length da = List.length db
  && List.for_all2
       (fun (na, ta, dev_a) (nb, tb, dev_b) ->
         na = nb && ta = tb
         &&
         match (dev_a, dev_b) with
         | N.Resistor { r = ra; _ }, N.Resistor { r = rb; _ } -> Float.abs (ra -. rb) < 1e-9 *. ra
         | N.Capacitor { c = ca; _ }, N.Capacitor { c = cb; _ } -> Float.abs (ca -. cb) < 1e-20
         | N.Bjt { model = ma; _ }, N.Bjt { model = mb; _ } -> ma = mb
         | N.Diode { model = ma; _ }, N.Diode { model = mb; _ } -> ma = mb
         | N.Vsource { wave = wa; _ }, N.Vsource { wave = wb; _ } -> waves_approx wa wb
         | N.Isource { wave = wa; _ }, N.Isource { wave = wb; _ } -> waves_approx wa wb
         | N.Vcvs { gain = ga; _ }, N.Vcvs { gain = gb; _ } -> ga = gb
         | N.Vccs { gm = ga; _ }, N.Vccs { gm = gb; _ } -> ga = gb
         | _ -> false)
       da db

let test_roundtrip_buffer_chain () =
  let chain = Cml_cells.Chain.build ~stages:4 ~freq:100e6 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let text = Io.to_string net in
  let back = Io.of_string text in
  Alcotest.(check bool) "round-trip equal" true (netlists_equal net back);
  Alcotest.(check string) "rendered again unchanged" text (Io.to_string back)

let test_roundtrip_preserves_simulation () =
  let chain = Cml_cells.Chain.build_dc ~stages:3 ~value:true () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let back = Io.of_string (Io.to_string net) in
  let x1 = E.dc_operating_point (E.compile net) in
  let x2 = E.dc_operating_point (E.compile back) in
  (* node name -> voltage must agree *)
  let v net x name =
    match N.find_node net name with Some nd -> E.voltage x nd | None -> Alcotest.fail name
  in
  List.iter
    (fun name -> check_close ~eps:1e-6 name (v net x1 name) (v back x2 name))
    [ "x1.op"; "x2.op"; "x3.op"; "x3.ce" ]

let test_parse_example_card_text () =
  let text =
    {|* hand-written deck
V vdd vgnd 0 DC 3.3
R r1 vgnd out 2.2k
C c1 out 0 10p
Q q1 out b 0 BF=80
+ IS=1e-18
D d1 out 0 ; clamp
I ib 0 b DC 2u
.end|}
  in
  let net = Io.of_string text in
  Alcotest.(check int) "6 devices" 6 (N.device_count net);
  (match N.get_device net "q1" with
  | N.Bjt { model; _ } ->
      check_close "bf" 80.0 model.Cml_spice.Models.q_bf;
      check_close "is" 1e-18 model.Cml_spice.Models.q_is ~eps:1e-12
  | _ -> Alcotest.fail "q1 should be a bjt");
  match N.get_device net "r1" with
  | N.Resistor { r; _ } -> check_close "r" 2200.0 r
  | _ -> Alcotest.fail "r1 should be a resistor"

let test_parse_multi_emitter () =
  let net = Io.of_string "Q q45 vout vtest op on IS=4e-19\n" in
  match N.get_device net "q45" with
  | N.Bjt { emitters; _ } -> Alcotest.(check int) "2 emitters" 2 (Array.length emitters)
  | _ -> Alcotest.fail "expected bjt"

let test_parse_errors_carry_line_numbers () =
  let attempt text expected_line =
    match Io.of_string text with
    | _ -> Alcotest.failf "expected parse error for %S" text
    | exception Io.Parse_error { line; _ } ->
        Alcotest.(check int) ("line of " ^ text) expected_line line
  in
  attempt "R r1 a b\n" 1;
  attempt "* ok\nX what a b c\n" 2;
  attempt "V v1 a 0 PULSE(1 2 3)\n" 1;
  attempt "R r1 a b 1x\n" 1;
  (* values the engine would reject fail in the reader, at their card *)
  attempt "R r1 a 0 1k\nC c1 a 0 1e999\n" 2;
  attempt "V v1 a 0 DC 1\nR r1 a 0 0\n" 2;
  attempt "R r1 a 0 -5\n" 1

(* a rejection by [Netlist] itself is located at its card, and a
   continued card at the line it starts on *)
let test_parse_duplicate_name_rejected () =
  let attempt text expected_line =
    match Io.of_string text with
    | _ -> Alcotest.failf "expected parse error for %S" text
    | exception Io.Parse_error { line; message } ->
        Alcotest.(check (pair int string))
          ("error of " ^ text)
          (expected_line, "duplicate device name: r1")
          (line, message)
  in
  attempt "R r1 a 0 1k\n* comment\nR r1 b 0 1k\n" 3;
  attempt "R r1 a 0 1k\nR r1 b 0\n+ 1k\n" 2

let test_file_roundtrip () =
  let chain = Cml_cells.Chain.build_dc ~stages:2 ~value:false () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let path = Filename.temp_file "cmldft" ".cir" in
  Io.write_file ~path net;
  let back = Io.read_file ~path in
  Sys.remove path;
  Alcotest.(check bool) "file round-trip" true (netlists_equal net back)

(* ------------------------------------------------------------------ *)
(* complex dense solver *)

let test_cdense_real_system () =
  (* purely real system must match the real dense solver *)
  let m = Cml_numerics.Cdense.create 2 in
  Cml_numerics.Cdense.add_entry m 0 0 ~re:2.0 ~im:0.0;
  Cml_numerics.Cdense.add_entry m 0 1 ~re:1.0 ~im:0.0;
  Cml_numerics.Cdense.add_entry m 1 0 ~re:1.0 ~im:0.0;
  Cml_numerics.Cdense.add_entry m 1 1 ~re:3.0 ~im:0.0;
  let re, im = Cml_numerics.Cdense.solve m ~b_re:[| 5.0; 10.0 |] ~b_im:[| 0.0; 0.0 |] in
  check_close "x0" 1.0 re.(0);
  check_close "x1" 3.0 re.(1);
  check_close "im0" 0.0 im.(0);
  check_close "im1" 0.0 im.(1)

let test_cdense_imaginary_diagonal () =
  (* (j) x = 1  =>  x = -j *)
  let m = Cml_numerics.Cdense.create 1 in
  Cml_numerics.Cdense.add_entry m 0 0 ~re:0.0 ~im:1.0;
  let re, im = Cml_numerics.Cdense.solve m ~b_re:[| 1.0 |] ~b_im:[| 0.0 |] in
  check_close "re" 0.0 re.(0);
  check_close "im" (-1.0) im.(0)

let test_cdense_singular () =
  let m = Cml_numerics.Cdense.create 2 in
  Cml_numerics.Cdense.add_entry m 0 0 ~re:1.0 ~im:0.0;
  Cml_numerics.Cdense.add_entry m 1 0 ~re:1.0 ~im:0.0;
  match Cml_numerics.Cdense.solve m ~b_re:[| 1.0; 1.0 |] ~b_im:[| 0.0; 0.0 |] with
  | _ -> Alcotest.fail "expected Singular"
  | exception Cml_numerics.Cdense.Singular _ -> ()

let prop_cdense_residual =
  QCheck2.Test.make ~name:"complex LU residual is small" ~count:150
    QCheck2.Gen.(
      int_range 1 12 >>= fun n ->
      array_size (return (n * n)) (float_range (-1.0) 1.0) >>= fun re ->
      array_size (return (n * n)) (float_range (-1.0) 1.0) >>= fun im ->
      array_size (return n) (float_range (-1.0) 1.0) >>= fun br ->
      array_size (return n) (float_range (-1.0) 1.0) >>= fun bi -> return (n, re, im, br, bi))
    (fun (n, re, im, br, bi) ->
      let m = Cml_numerics.Cdense.create n in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          Cml_numerics.Cdense.add_entry m i j ~re:re.((i * n) + j) ~im:im.((i * n) + j)
        done;
        (* diagonal dominance for conditioning *)
        Cml_numerics.Cdense.add_entry m i i ~re:(float_of_int (3 * n)) ~im:0.0
      done;
      let xr, xi = Cml_numerics.Cdense.solve m ~b_re:br ~b_im:bi in
      (* residual = A x - b *)
      let ok = ref true in
      for i = 0 to n - 1 do
        let sr = ref 0.0 and si = ref 0.0 in
        for j = 0 to n - 1 do
          let ar = re.((i * n) + j) +. if i = j then float_of_int (3 * n) else 0.0 in
          let ai = im.((i * n) + j) in
          sr := !sr +. ((ar *. xr.(j)) -. (ai *. xi.(j)));
          si := !si +. ((ar *. xi.(j)) +. (ai *. xr.(j)))
        done;
        if Float.abs (!sr -. br.(i)) > 1e-7 || Float.abs (!si -. bi.(i)) > 1e-7 then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* AC analysis *)

let test_ac_rc_lowpass () =
  let rr = 1000.0 and cc = 1e-9 in
  let fc = 1.0 /. (2.0 *. Float.pi *. rr *. cc) in
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"vin" ~pos:inp ~neg:N.gnd (W.Dc 0.0);
  N.resistor net ~name:"r1" inp out rr;
  N.capacitor net ~name:"c1" out N.gnd cc;
  let sim = E.compile net in
  let pts = Cml_spice.Ac.run sim ~source:"vin" ~freqs:[| fc /. 100.0; fc; fc *. 100.0 |] in
  match pts with
  | [ lo; mid; hi ] ->
      check_close ~eps:1e-3 "passband" 1.0 (Cml_spice.Ac.magnitude lo out);
      check_close ~eps:1e-3 "corner magnitude" (1.0 /. sqrt 2.0) (Cml_spice.Ac.magnitude mid out);
      check_close ~eps:0.01 "corner phase" (-45.0) (Cml_spice.Ac.phase_deg mid out);
      Alcotest.(check bool) "stopband" true (Cml_spice.Ac.magnitude hi out < 0.02)
  | _ -> Alcotest.fail "expected 3 points"

let test_ac_divider_flat () =
  let net = N.create () in
  let inp = N.node net "in" and out = N.node net "out" in
  N.vsource net ~name:"vin" ~pos:inp ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"r1" inp out 1000.0;
  N.resistor net ~name:"r2" out N.gnd 1000.0;
  let sim = E.compile net in
  let pts = Cml_spice.Ac.run sim ~source:"vin" ~freqs:[| 1e3; 1e9 |] in
  List.iter (fun p -> check_close ~eps:1e-6 "half" 0.5 (Cml_spice.Ac.magnitude p out)) pts

let test_ac_cml_buffer_gain () =
  (* balanced differential pair: small-signal gain about gm*R/2 =
     (Itail/2/VT)*R/2, and it must roll off at very high frequency *)
  let b = Cml_cells.Builder.create () in
  let net = b.Cml_cells.Builder.net in
  let proc = b.Cml_cells.Builder.proc in
  let mid = proc.Cml_cells.Process.vgnd -. (proc.Cml_cells.Process.swing /. 2.0) in
  let inp = N.node net "in.p" and inn = N.node net "in.n" in
  N.vsource net ~name:"vp" ~pos:inp ~neg:N.gnd (W.Dc mid);
  N.vsource net ~name:"vn" ~pos:inn ~neg:N.gnd (W.Dc mid);
  let out =
    Cml_cells.Buffer_cell.add b ~name:"x1" ~input:{ Cml_cells.Builder.p = inp; n = inn }
  in
  let sim = E.compile net in
  let pts = Cml_spice.Ac.run sim ~source:"vp" ~freqs:[| 1e6; 300e9 |] in
  match pts with
  | [ low; high ] ->
      let gain_low = Cml_spice.Ac.magnitude low out.Cml_cells.Builder.n in
      let vt = Cml_spice.Models.boltzmann_vt in
      let expected =
        proc.Cml_cells.Process.i_tail /. 2.0 /. vt *. proc.Cml_cells.Process.r_load /. 2.0
      in
      Alcotest.(check bool)
        (Printf.sprintf "midband gain %.2f near %.2f" gain_low expected)
        true
        (gain_low > 0.5 *. expected && gain_low < 1.5 *. expected);
      Alcotest.(check bool) "rolls off" true
        (Cml_spice.Ac.magnitude high out.Cml_cells.Builder.n < gain_low /. 3.0)
  | _ -> Alcotest.fail "expected 2 points"

let test_ac_unknown_source () =
  let net = N.create () in
  let a = N.node net "a" in
  N.vsource net ~name:"vin" ~pos:a ~neg:N.gnd (W.Dc 1.0);
  N.resistor net ~name:"r" a N.gnd 100.0;
  let sim = E.compile net in
  match Cml_spice.Ac.run sim ~source:"nope" ~freqs:[| 1e3 |] with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

let prop_netlist_roundtrip =
  QCheck2.Test.make ~name:"random netlists survive the text round-trip" ~count:60
    QCheck2.Gen.(
      int_range 2 6 >>= fun nnodes ->
      list_size (int_range 1 12)
        (triple (int_range 0 2) (int_range 0 (nnodes - 1)) (int_range 0 (nnodes - 1)))
      >>= fun devices -> return (nnodes, devices))
    (fun (_nnodes, devices) ->
      let net = N.create () in
      let node k = if k = 0 then N.gnd else N.node net (Printf.sprintf "n%d" k) in
      List.iteri
        (fun i (kind, a, b) ->
          let name = Printf.sprintf "d%d" i in
          match kind with
          | 0 -> N.resistor net ~name (node a) (node b) (float_of_int ((100 * (i + 1)) + a))
          | 1 -> N.capacitor net ~name (node a) (node b) (1e-12 *. float_of_int (i + 1))
          | _ ->
              N.vsource net ~name ~pos:(node a) ~neg:(node b)
                (W.Sine
                   {
                     offset = float_of_int a;
                     ampl = 0.5;
                     freq = 1e6 *. float_of_int (i + 1);
                     delay = 0.0;
                     phase = 0.1;
                   }))
        devices;
      netlists_equal net (Io.of_string (Io.to_string net)))

let () =
  let qc = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "spice-io-ac"
    [
      ( "values",
        [
          Alcotest.test_case "suffixes" `Quick test_parse_value_suffixes;
          Alcotest.test_case "garbage" `Quick test_parse_value_garbage;
          Alcotest.test_case "format round-trip" `Quick test_format_value_roundtrip;
        ] );
      ( "netlist-io",
        [
          Alcotest.test_case "chain round-trip" `Quick test_roundtrip_buffer_chain;
          Alcotest.test_case "round-trip simulates identically" `Quick
            test_roundtrip_preserves_simulation;
          Alcotest.test_case "hand-written deck" `Quick test_parse_example_card_text;
          Alcotest.test_case "multi-emitter card" `Quick test_parse_multi_emitter;
          Alcotest.test_case "error line numbers" `Quick test_parse_errors_carry_line_numbers;
          Alcotest.test_case "duplicate names" `Quick test_parse_duplicate_name_rejected;
          Alcotest.test_case "file round-trip" `Quick test_file_roundtrip;
        ] );
      ( "cdense",
        [
          Alcotest.test_case "real system" `Quick test_cdense_real_system;
          Alcotest.test_case "imaginary diagonal" `Quick test_cdense_imaginary_diagonal;
          Alcotest.test_case "singular" `Quick test_cdense_singular;
        ] );
      ( "ac",
        [
          Alcotest.test_case "rc lowpass analytic" `Quick test_ac_rc_lowpass;
          Alcotest.test_case "divider flat" `Quick test_ac_divider_flat;
          Alcotest.test_case "cml buffer gain" `Quick test_ac_cml_buffer_gain;
          Alcotest.test_case "unknown source" `Quick test_ac_unknown_source;
        ] );
      ("properties", qc [ prop_value_roundtrip; prop_cdense_residual; prop_netlist_roundtrip ]);
    ]
