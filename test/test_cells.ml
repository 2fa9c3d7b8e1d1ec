(* Tests for the CML cell library: process calibration, the Figure-1
   buffer, logic function of every gate (checked by DC analysis over
   all input combinations), latches (checked in transient), and the
   buffer chain of Figure 3. *)

module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module T = Cml_spice.Transient
module B = Cml_cells.Builder

let proc = Cml_cells.Process.default

let check_close ?(eps = 1e-3) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.6g, got %.6g" msg expected actual

(* read a differential signal as a boolean from a DC solution *)
let logic_of x (d : B.diff) =
  let vp = E.voltage x d.B.p and vn = E.voltage x d.B.n in
  if vp -. vn > 0.05 then Some true
  else if vn -. vp > 0.05 then Some false
  else None

(* ------------------------------------------------------------------ *)
(* Process calibration *)

let test_vbias_sets_tail_current () =
  (* a lone tail transistor biased by v_bias must sink i_tail *)
  let b = B.create () in
  let nd = B.node b "load" in
  N.resistor b.B.net ~name:"rl" b.B.vgnd nd 100.0;
  B.tail_source b ~name:"q" nd;
  let sim = E.compile b.B.net in
  let x = E.dc_operating_point sim in
  let i = (proc.Cml_cells.Process.vgnd -. E.voltage x nd) /. 100.0 in
  check_close "tail current" proc.Cml_cells.Process.i_tail i ~eps:0.03e-3

let test_vbe_on_target () =
  let vbe = Cml_cells.Process.vbe_on proc in
  Alcotest.(check bool) (Printf.sprintf "vbe about 0.9, got %g" vbe) true
    (vbe > 0.85 && vbe < 0.95)

let test_swing_product () =
  check_close "swing = I*R" proc.Cml_cells.Process.swing
    (proc.Cml_cells.Process.i_tail *. proc.Cml_cells.Process.r_load)
    ~eps:1e-9

let test_with_tail_current () =
  let p2 = Cml_cells.Process.with_tail_current proc 1e-3 in
  check_close "swing follows" 0.5 p2.Cml_cells.Process.swing ~eps:1e-9

(* ------------------------------------------------------------------ *)
(* Buffer *)

let buffer_dc value =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"in" ~value in
  let out = Cml_cells.Buffer_cell.add b ~name:"x1" ~input in
  let sim = E.compile b.B.net in
  let x = E.dc_operating_point sim in
  (x, out)

let test_buffer_follows_true () =
  let x, out = buffer_dc true in
  Alcotest.(check bool) "out = 1" true (logic_of x out = Some true)

let test_buffer_follows_false () =
  let x, out = buffer_dc false in
  Alcotest.(check bool) "out = 0" true (logic_of x out = Some false)

let test_buffer_levels () =
  let x, out = buffer_dc true in
  check_close "high level at rail" proc.Cml_cells.Process.vgnd (E.voltage x out.B.p) ~eps:0.02;
  check_close "low level one swing down"
    (Cml_cells.Process.v_low proc)
    (E.voltage x out.B.n) ~eps:0.02

let test_inverter () =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"in" ~value:true in
  let out = Cml_cells.Buffer_cell.inverter b ~name:"x1" ~input in
  let x = E.dc_operating_point (E.compile b.B.net) in
  Alcotest.(check bool) "inverted" true (logic_of x out = Some false)

let test_buffer_device_names () =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"in" ~value:true in
  ignore (Cml_cells.Buffer_cell.add b ~name:"x1" ~input);
  List.iter
    (fun d -> Alcotest.(check bool) (d ^ " exists") true (N.mem_device b.B.net d))
    [ "x1.q1"; "x1.q2"; "x1.q3"; "x1.r1"; "x1.r2" ]

(* ------------------------------------------------------------------ *)
(* Gates: exhaustive truth tables via DC *)

let gate_dc build_gate a_val b_val =
  let b = B.create () in
  let a = B.diff_dc_input b ~name:"ia" ~value:a_val in
  let bb = B.diff_dc_input b ~name:"ib" ~value:b_val in
  let out = build_gate b a bb in
  let x = E.dc_operating_point (E.compile b.B.net) in
  logic_of x out

let truth_table name build_gate expected () =
  List.iter
    (fun (a, bv) ->
      let got = gate_dc build_gate a bv in
      let want = Some (expected a bv) in
      if got <> want then
        Alcotest.failf "%s(%b,%b): expected %s, got %s" name a bv
          (match want with Some true -> "1" | Some false -> "0" | None -> "x")
          (match got with Some true -> "1" | Some false -> "0" | None -> "x"))
    [ (false, false); (false, true); (true, false); (true, true) ]

let test_and2 =
  truth_table "and2"
    (fun b a bb -> Cml_cells.Gates.and2 b ~name:"g" ~a ~b:bb)
    (fun a b -> a && b)

let test_or2 =
  truth_table "or2"
    (fun b a bb -> Cml_cells.Gates.or2 b ~name:"g" ~a ~b:bb)
    (fun a b -> a || b)

let test_xor2 =
  truth_table "xor2"
    (fun b a bb -> Cml_cells.Gates.xor2 b ~name:"g" ~a ~b:bb)
    (fun a b -> a <> b)

let test_mux_sel_true =
  truth_table "mux(sel=1)"
    (fun b a bb ->
      let sel = B.diff_dc_input b ~name:"sel" ~value:true in
      Cml_cells.Gates.mux21 b ~name:"g" ~sel ~a ~b:bb)
    (fun a _ -> a)

let test_mux_sel_false =
  truth_table "mux(sel=0)"
    (fun b a bb ->
      let sel = B.diff_dc_input b ~name:"sel" ~value:false in
      Cml_cells.Gates.mux21 b ~name:"g" ~sel ~a ~b:bb)
    (fun _ b -> b)

let test_level_shifter_drop () =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"in" ~value:true in
  let shifted = B.level_shift_diff b ~name:"ls" ~input in
  let x = E.dc_operating_point (E.compile b.B.net) in
  let drop = E.voltage x input.B.p -. E.voltage x shifted.B.p in
  Alcotest.(check bool) (Printf.sprintf "one VBE drop, got %g" drop) true
    (drop > 0.8 && drop < 1.0)

(* ------------------------------------------------------------------ *)
(* Latch / flip-flop (transient) *)

let test_latch_transparent_then_holds () =
  let b = B.create () in
  let proc = b.B.proc in
  let hi = proc.Cml_cells.Process.vgnd and lo = Cml_cells.Process.v_low proc in
  (* clk: high until 2 ns then low; d: drops at 3 ns while clk low *)
  let clk = B.fresh_diff b "clk" in
  let mk name pos wave = N.vsource b.B.net ~name ~pos ~neg:N.gnd wave in
  mk "clkp" clk.B.p (Cml_spice.Waveform.Pwl [| (0.0, hi); (2e-9, hi); (2.05e-9, lo) |]);
  mk "clkn" clk.B.n (Cml_spice.Waveform.Pwl [| (0.0, lo); (2e-9, lo); (2.05e-9, hi) |]);
  let d = B.fresh_diff b "d" in
  mk "dp" d.B.p (Cml_spice.Waveform.Pwl [| (0.0, hi); (3e-9, hi); (3.05e-9, lo) |]);
  mk "dn" d.B.n (Cml_spice.Waveform.Pwl [| (0.0, lo); (3e-9, lo); (3.05e-9, hi) |]);
  let q = Cml_cells.Latch.d_latch b ~name:"l1" ~d ~clk in
  let sim = E.compile b.B.net in
  let r = T.run sim b.B.net (T.config ~tstop:5e-9 ~max_step:10e-12 ()) in
  let wq = Cml_wave.Wave.create r.T.times (T.diff_trace r q.B.p q.B.n) in
  Alcotest.(check bool) "transparent: q follows d=1" true
    (Cml_wave.Wave.value_at wq 1.5e-9 > 0.1);
  Alcotest.(check bool) "holds 1 after clk falls and d drops" true
    (Cml_wave.Wave.value_at wq 4.5e-9 > 0.1)

let test_dff_captures_on_rising_edge () =
  let b = B.create () in
  let clk = B.diff_square_input b ~name:"clk" ~freq:250e6 () in
  (* d toggles at half the clock rate: q must follow d with one cycle
     latency, i.e. become a 125 MHz square itself *)
  let d = B.diff_square_input b ~name:"d" ~freq:125e6 () in
  let q = Cml_cells.Latch.dff b ~name:"ff" ~d ~clk in
  let sim = E.compile b.B.net in
  let r = T.run sim b.B.net (T.config ~tstop:20e-9 ~max_step:10e-12 ()) in
  let wq = Cml_wave.Wave.create r.T.times (T.diff_trace r q.B.p q.B.n) in
  let crossings = Cml_wave.Measure.crossings wq ~level:0.0 in
  let late = List.filter (fun t -> t > 6e-9) crossings in
  (* a 125 MHz output toggles every 4 ns: expect roughly 3-4 crossings
     in the final 14 ns *)
  Alcotest.(check bool)
    (Printf.sprintf "q toggles at data rate (%d crossings)" (List.length late))
    true
    (List.length late >= 2 && List.length late <= 5)

(* ------------------------------------------------------------------ *)
(* Chain *)

let test_chain_structure () =
  let chain = Cml_cells.Chain.build_dc ~stages:5 ~value:true () in
  Alcotest.(check int) "5 stages" 5 (Array.length chain.Cml_cells.Chain.stages);
  Alcotest.(check string) "stage name" "x3" (Cml_cells.Chain.stage_name 3);
  Alcotest.(check bool) "devices exist" true
    (N.mem_device chain.Cml_cells.Chain.builder.B.net "x5.q3")

let test_chain_dc_propagates () =
  let chain = Cml_cells.Chain.build_dc ~stages:6 ~value:true () in
  let x = E.dc_operating_point (E.compile chain.Cml_cells.Chain.builder.B.net) in
  for i = 1 to 6 do
    let out = Cml_cells.Chain.output chain i in
    Alcotest.(check bool)
      (Printf.sprintf "stage %d follows input" i)
      true
      (logic_of x out = Some true)
  done

let test_chain_output_bounds () =
  let chain = Cml_cells.Chain.build_dc ~stages:3 ~value:false () in
  Alcotest.check_raises "stage 0" (Invalid_argument "Chain.output: bad stage index")
    (fun () -> ignore (Cml_cells.Chain.output chain 0));
  Alcotest.check_raises "stage 4" (Invalid_argument "Chain.output: bad stage index")
    (fun () -> ignore (Cml_cells.Chain.output chain 4))

let test_chain_gate_delay_calibration () =
  (* the headline calibration: nominal gate delay close to the
     paper's 53 ps *)
  let freq = 100e6 in
  let chain = Cml_cells.Chain.build ~stages:4 ~freq () in
  let net = chain.Cml_cells.Chain.builder.B.net in
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:15e-9 ~max_step:10e-12 ()) in
  let wave nd = Cml_wave.Wave.create r.T.times (T.node_trace r nd) in
  let d2 = Cml_cells.Chain.output chain 2 and d3 = Cml_cells.Chain.output chain 3 in
  let x2 = Cml_wave.Measure.differential_crossings (wave d2.B.p) (wave d2.B.n) in
  let x3 = Cml_wave.Measure.differential_crossings (wave d3.B.p) (wave d3.B.n) in
  match List.filter (fun t -> t > 10e-9) x2 with
  | t2 :: _ ->
      let t3 = List.find (fun t -> t > t2) x3 in
      let delay_ps = (t3 -. t2) *. 1e12 in
      Alcotest.(check bool)
        (Printf.sprintf "gate delay 40-70 ps, got %.1f" delay_ps)
        true
        (delay_ps > 40.0 && delay_ps < 70.0)
  | [] -> Alcotest.fail "no crossings"

let test_chain_swing_nominal () =
  let freq = 100e6 in
  let chain = Cml_cells.Chain.build ~stages:4 ~freq () in
  let net = chain.Cml_cells.Chain.builder.B.net in
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop:15e-9 ~max_step:10e-12 ()) in
  let d3 = Cml_cells.Chain.output chain 3 in
  let w = Cml_wave.Wave.create r.T.times (T.node_trace r d3.B.p) in
  let swing = Cml_wave.Measure.swing w ~t_from:8e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "swing about 250 mV, got %.1f mV" (swing *. 1e3))
    true
    (swing > 0.22 && swing < 0.29)

let test_ring_oscillates () =
  let ring = Cml_cells.Ring.build () in
  match Cml_cells.Ring.measure_frequency ring with
  | None -> Alcotest.fail "ring never oscillated"
  | Some freq ->
      let expected = Cml_cells.Ring.expected_frequency ring in
      let ratio = freq /. expected in
      Alcotest.(check bool)
        (Printf.sprintf "frequency %.2f GHz within 30%% of %.2f GHz" (freq /. 1e9)
           (expected /. 1e9))
        true
        (ratio > 0.7 && ratio < 1.3)

let test_ring_more_stages_slower () =
  let f stages =
    match Cml_cells.Ring.measure_frequency (Cml_cells.Ring.build ~stages ()) with
    | Some f -> f
    | None -> Alcotest.fail "no oscillation"
  in
  let f5 = f 5 and f9 = f 9 in
  Alcotest.(check bool)
    (Printf.sprintf "9 stages slower than 5 (%.2f vs %.2f GHz)" (f9 /. 1e9) (f5 /. 1e9))
    true (f9 < f5)

(* ------------------------------------------------------------------ *)
(* Transfer curves / noise margins *)

let buffer_build b input = Cml_cells.Buffer_cell.add b ~name:"g" ~input

let test_transfer_shape () =
  let curve = Cml_cells.Transfer.dc_transfer ~build:buffer_build () in
  let m = Cml_cells.Transfer.margins curve in
  Alcotest.(check bool)
    (Printf.sprintf "gain %.2f in [3, 8]" m.Cml_cells.Transfer.gain)
    true
    (m.Cml_cells.Transfer.gain > 3.0 && m.Cml_cells.Transfer.gain < 8.0);
  Alcotest.(check bool)
    (Printf.sprintf "output saturates near +-swing (%.3f)" m.Cml_cells.Transfer.v_oh)
    true
    (Float.abs (m.Cml_cells.Transfer.v_oh -. proc.Cml_cells.Process.swing) < 0.02
    && Float.abs (m.Cml_cells.Transfer.v_ol +. proc.Cml_cells.Process.swing) < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "healthy noise margins (%.0f / %.0f mV)"
       (1e3 *. m.Cml_cells.Transfer.nm_low)
       (1e3 *. m.Cml_cells.Transfer.nm_high))
    true
    (m.Cml_cells.Transfer.nm_low > 0.1 && m.Cml_cells.Transfer.nm_high > 0.1)

let test_transfer_pipe_increases_margin () =
  (* the paper, section 4: "several defects map into increased
     noise-margins" - the tail pipe enlarges the swing *)
  let good = Cml_cells.Transfer.margins (Cml_cells.Transfer.dc_transfer ~build:buffer_build ()) in
  let prepare b =
    Cml_defects.Inject.apply b.B.net (Cml_defects.Defect.Pipe { device = "g.q3"; r = 4e3 })
  in
  let bad =
    Cml_cells.Transfer.margins (Cml_cells.Transfer.dc_transfer ~build:buffer_build ~prepare ())
  in
  Alcotest.(check bool)
    (Printf.sprintf "noise margin increased (%.0f -> %.0f mV)"
       (1e3 *. good.Cml_cells.Transfer.nm_high)
       (1e3 *. bad.Cml_cells.Transfer.nm_high))
    true
    (bad.Cml_cells.Transfer.nm_high > good.Cml_cells.Transfer.nm_high +. 0.05)

let test_transfer_dead_gate_zero_margin () =
  let prepare b =
    Cml_defects.Inject.apply b.B.net
      (Cml_defects.Defect.Terminal_short { device = "g.q1"; t1 = "b"; t2 = "e" })
  in
  let m =
    Cml_cells.Transfer.margins (Cml_cells.Transfer.dc_transfer ~build:buffer_build ~prepare ())
  in
  Alcotest.(check bool) "gain collapsed" true (Float.abs m.Cml_cells.Transfer.gain < 0.5)

(* ------------------------------------------------------------------ *)
(* .bench -> CML compiler *)

module Cp = Cml_cells.Compile
module L = Cml_logic

let test_compile_names_match_contract () =
  (* every physical instance resolves under the Circuit.net_names
     contract the DFT planner uses, with the right polarity nodes *)
  let c = L.Bench_format.s27 () in
  let d = Cp.compile ~freq:200e6 c in
  let names = L.Circuit.net_names c in
  Array.iteri
    (fun id nm ->
      match c.L.Circuit.gates.(id) with
      | L.Circuit.Input _ -> ()
      | _ -> (
          match Cp.find_cell d nm with
          | Some _ -> ()
          | None -> Alcotest.failf "net %d (%s) has no cell" id nm))
    names;
  (* DFF plain names alias the slave output nodes *)
  Array.iter
    (fun id ->
      match Cp.find_cell d names.(id) with
      | Some diff ->
          Alcotest.(check string)
            (names.(id) ^ " aliases its slave output")
            (names.(id) ^ ".s.op")
            (N.node_name d.Cp.builder.B.net diff.B.p)
      | None -> Alcotest.failf "dff %s unresolved" names.(id))
    c.L.Circuit.dffs

let test_compile_physical_and_defaults () =
  let c =
    L.Bench_format.of_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nx = NOT(a)\ny = AND(x, b)\n"
  in
  let d = Cp.compile c in
  Alcotest.(check bool) "free NOT is not physical" false (Cp.physical d "x");
  Alcotest.(check bool) "AND is physical" true (Cp.physical d "y");
  Alcotest.(check bool) "input is not physical" false (Cp.physical d "a");
  Alcotest.(check string) "default dut skips the free NOT" "y" (Cp.default_dut d);
  Alcotest.(check string) "default output is the declared one" "y" (Cp.default_output d)

let test_compile_dc_converges () =
  (* compiled s27 (flip-flops, free NOTs, fanout > 2 nets) reaches a
     DC operating point with every declared output at a legal CML
     level *)
  let c = L.Bench_format.s27 () in
  let d = Cp.compile ~freq:200e6 c in
  let sim = E.compile (Cp.netlist d) in
  let x = E.dc_operating_point sim in
  let proc = Cml_cells.Process.default in
  let vgnd = proc.Cml_cells.Process.vgnd and swing = proc.Cml_cells.Process.swing in
  (* legal band: the rail down to one VBE level shift plus a swing *)
  let vlow = vgnd -. Cml_cells.Process.vbe_on proc -. (2.0 *. swing) in
  List.iter
    (fun (nm, diff) ->
      let vp = E.voltage x diff.B.p and vn = E.voltage x diff.B.n in
      if vp < vlow || vp > vgnd +. 1e-6 then
        Alcotest.failf "%s.p = %.3f V outside CML levels" nm vp;
      if vn < vlow || vn > vgnd +. 1e-6 then
        Alcotest.failf "%s.n = %.3f V outside CML levels" nm vn;
      if Float.abs (vp -. vn) > 2.0 *. swing then
        Alcotest.failf "%s differential |%.3f - %.3f| exceeds 2 swings" nm vp vn)
    d.Cp.outputs

(* ------------------------------------------------------------------ *)
(* DC seeds of compiled combinational designs *)

let c432_at ?proc levels =
  let circuit = L.Bench_circuits.c432_surrogate () in
  let stimuli =
    List.mapi
      (fun i (name, _) -> (name, if i = 0 then Cp.Toggle else Cp.Const levels.(i - 1)))
      circuit.L.Circuit.inputs
  in
  Cp.compile ?proc ~freq:200e6 ~stimuli circuit

let c432_levels st =
  Array.init
    (List.length (L.Bench_circuits.c432_surrogate ()).L.Circuit.inputs - 1)
    (fun _ -> Random.State.bool st)

(* largest |x - x'| over the node unknowns, in Newton tolerances *)
let newton_tolerances sim x x' =
  let o = E.options sim in
  let worst = ref 0.0 in
  for i = 0 to E.node_unknowns sim - 1 do
    let tol = o.E.vntol +. (o.E.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i))) in
    worst := Float.max !worst (Float.abs (x.(i) -. x'.(i)) /. tol)
  done;
  !worst

let zero_start net =
  let net = N.copy net in
  N.clear_nodeset net;
  let sim = E.compile net in
  E.dc_operating_point sim

(* 20 fixed (logic state, perturbation seed) points of c432: plain
   Newton from the template seed converges in at most 5 iterations,
   onto the operating point the zero-start homotopy reaches. *)
let test_seed_c432_points () =
  for k = 0 to 19 do
    let st = Random.State.make [| 24; k |] in
    let design = c432_at (c432_levels st) in
    let net = Cml_defects.Variation.perturb ~seed:(1000 + k) (Cp.netlist design) in
    let sim = E.compile net in
    let x = E.dc_operating_point sim in
    let s = E.solver_stats sim in
    let what = Printf.sprintf "point %d" k in
    Alcotest.(check (pair int int)) (what ^ ": seeded, no fallback") (1, 0)
      (s.E.seeded_starts, s.E.seed_fallbacks);
    if s.E.newton_iters > 5 then
      Alcotest.failf "%s: %d Newton iterations from the seed" what s.E.newton_iters;
    let dev = newton_tolerances sim x (zero_start net) in
    if dev > 1.0 then Alcotest.failf "%s: %.3f Newton tolerances off the zero start" what dev
  done

(* A nodeset that starts nowhere near the solution costs one fallback
   and still lands on the zero-start point. *)
let test_seed_bad_nodeset () =
  let net = N.copy (Cp.netlist (c432_at (c432_levels (Random.State.make [| 24 |])))) in
  for nd = 1 to N.node_count net - 1 do
    N.set_nodeset net nd 50.0
  done;
  let sim = E.compile net in
  let x = E.dc_operating_point sim in
  let s = E.solver_stats sim in
  Alcotest.(check (pair int int)) "one seeded start, one fallback" (1, 1)
    (s.E.seeded_starts, s.E.seed_fallbacks);
  let dev = newton_tolerances sim x (zero_start net) in
  if dev > 1.0 then Alcotest.failf "%.3f Newton tolerances off the zero start" dev

(* The netlist copies keep the seed; a cone netlist and a clocked
   design carry none. *)
let test_seed_carriers () =
  let design = c432_at (c432_levels (Random.State.make [| 24 |])) in
  let golden = Cp.netlist design in
  let set = N.nodeset golden in
  Alcotest.(check int) "every node seeded" (N.node_count golden - 1) (List.length set);
  let keeps what net = Alcotest.(check bool) (what ^ " keeps the nodeset") true (N.nodeset net = set) in
  keeps "copy" (N.copy golden);
  keeps "map_devices" (N.map_devices golden Fun.id);
  keeps "Variation.perturb" (Cml_defects.Variation.perturb ~seed:7 golden);
  keeps "Inject.apply"
    (Cml_defects.Inject.apply golden (Cml_defects.Defect.Pipe { device = "n36.q3"; r = 2e3 }));
  let tstop = 20e-12 in
  let reference = T.run (E.compile golden) golden (T.config ~tstop ~max_step:10e-12 ()) in
  let cone = Cml_defects.Cone.(drive (attacked golden ~cells:[ "n36" ]) ~reference:(of_run golden reference)) in
  Alcotest.(check int) "cone netlist" 0 (List.length (N.nodeset (Cml_defects.Cone.netlist cone)));
  let s27 = Cp.netlist (Cp.compile ~freq:200e6 (L.Bench_format.s27 ())) in
  Alcotest.(check int) "clocked s27" 0 (List.length (N.nodeset s27))

(* Templates are a pure function of their key: two compiles, and two
   compiles racing on an uncached process from two domains, give
   bit-identical nodesets. *)
let test_seed_deterministic () =
  let bits net = List.map (fun (nd, v) -> (nd, Int64.bits_of_float v)) (N.nodeset net) in
  let levels = c432_levels (Random.State.make [| 24 |]) in
  let once ?proc () = bits (Cp.netlist (c432_at ?proc levels)) in
  Alcotest.(check bool) "two compiles" true (once () = once ());
  let proc = Cml_cells.Process.with_tail_current proc 0.6e-3 in
  let racers = List.init 2 (fun _ -> Domain.spawn (fun () -> once ~proc ())) in
  match List.map Domain.join racers with
  | [ a; b ] ->
      Alcotest.(check bool) "two domains" true (a = b);
      Alcotest.(check bool) "and a third compile after them" true (a = once ~proc ())
  | _ -> assert false

let () =
  Alcotest.run "cells"
    [
      ( "process",
        [
          Alcotest.test_case "vbias sets tail current" `Quick test_vbias_sets_tail_current;
          Alcotest.test_case "vbe_on target" `Quick test_vbe_on_target;
          Alcotest.test_case "swing product" `Quick test_swing_product;
          Alcotest.test_case "with_tail_current" `Quick test_with_tail_current;
        ] );
      ( "buffer",
        [
          Alcotest.test_case "follows true" `Quick test_buffer_follows_true;
          Alcotest.test_case "follows false" `Quick test_buffer_follows_false;
          Alcotest.test_case "output levels" `Quick test_buffer_levels;
          Alcotest.test_case "inverter" `Quick test_inverter;
          Alcotest.test_case "device names" `Quick test_buffer_device_names;
        ] );
      ( "gates",
        [
          Alcotest.test_case "and2 truth table" `Quick test_and2;
          Alcotest.test_case "or2 truth table" `Quick test_or2;
          Alcotest.test_case "xor2 truth table" `Quick test_xor2;
          Alcotest.test_case "mux sel=1" `Quick test_mux_sel_true;
          Alcotest.test_case "mux sel=0" `Quick test_mux_sel_false;
          Alcotest.test_case "level shifter drop" `Quick test_level_shifter_drop;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "latch transparent/hold" `Slow test_latch_transparent_then_holds;
          Alcotest.test_case "dff edge capture" `Slow test_dff_captures_on_rising_edge;
        ] );
      ( "chain",
        [
          Alcotest.test_case "structure" `Quick test_chain_structure;
          Alcotest.test_case "dc propagation" `Quick test_chain_dc_propagates;
          Alcotest.test_case "output bounds" `Quick test_chain_output_bounds;
          Alcotest.test_case "gate delay calibration" `Slow test_chain_gate_delay_calibration;
          Alcotest.test_case "ring oscillator frequency" `Slow test_ring_oscillates;
          Alcotest.test_case "ring scaling with stages" `Slow test_ring_more_stages_slower;
        ] );
      ( "transfer",
        [
          Alcotest.test_case "buffer transfer shape" `Slow test_transfer_shape;
          Alcotest.test_case "pipe increases noise margin" `Slow
            test_transfer_pipe_increases_margin;
          Alcotest.test_case "dead gate" `Slow test_transfer_dead_gate_zero_margin;
          Alcotest.test_case "nominal swing" `Slow test_chain_swing_nominal;
        ] );
      ( "compile",
        [
          Alcotest.test_case "names match planner contract" `Quick
            test_compile_names_match_contract;
          Alcotest.test_case "physical cells and defaults" `Quick
            test_compile_physical_and_defaults;
          Alcotest.test_case "s27 DC converges" `Quick test_compile_dc_converges;
        ] );
      ( "dc-seed",
        [
          Alcotest.test_case "c432 points converge from the seed" `Slow test_seed_c432_points;
          Alcotest.test_case "bad nodeset falls back" `Quick test_seed_bad_nodeset;
          Alcotest.test_case "copies keep it, cones and clocked designs lack it" `Quick
            test_seed_carriers;
          Alcotest.test_case "bit-identical across compiles and domains" `Quick
            test_seed_deterministic;
        ] );
    ]
