(* Tests for defect modelling: injection mechanics, site enumeration
   and the fault classification of the campaign runner, including the
   paper's two canonical cases — the C-E short of Figure 2 (stuck-at)
   and the Q3 pipe of Figure 4 (excessive excursion that heals). *)

module N = Cml_spice.Netlist
module D = Cml_defects.Defect
module B = Cml_cells.Builder

let buffer_net () =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"in" ~value:true in
  let out = Cml_cells.Buffer_cell.add b ~name:"x1" ~input in
  (b, out)

(* ------------------------------------------------------------------ *)
(* Injection mechanics *)

let test_pipe_adds_resistor () =
  let b, _ = buffer_net () in
  let faulty = Cml_defects.Inject.apply b.B.net (D.Pipe { device = "x1.q3"; r = 4e3 }) in
  Alcotest.(check bool) "pipe resistor added" true (N.mem_device faulty "defect.pipe");
  Alcotest.(check bool) "original untouched" true (not (N.mem_device b.B.net "defect.pipe"))

let test_pipe_on_resistor_rejected () =
  let b, _ = buffer_net () in
  match Cml_defects.Inject.apply b.B.net (D.Pipe { device = "x1.r1"; r = 4e3 }) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_short_between_terminals () =
  let b, _ = buffer_net () in
  let faulty =
    Cml_defects.Inject.apply b.B.net (D.Terminal_short { device = "x1.q2"; t1 = "c"; t2 = "e" })
  in
  match N.get_device faulty "defect.short" with
  | N.Resistor { r; _ } -> Alcotest.(check (float 1e-9)) "1 ohm" D.short_resistance r
  | _ -> Alcotest.fail "expected resistor"

let test_unknown_device () =
  let b, _ = buffer_net () in
  match Cml_defects.Inject.apply b.B.net (D.Pipe { device = "nope.q3"; r = 1e3 }) with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

let test_open_splits_node () =
  let b, _ = buffer_net () in
  let before = N.node_count b.B.net in
  let faulty =
    Cml_defects.Inject.apply b.B.net (D.Open_terminal { device = "x1.q1"; terminal = "b" })
  in
  Alcotest.(check int) "one new node" (before + 1) (N.node_count faulty);
  Alcotest.(check bool) "bridge resistor" true (N.mem_device faulty "defect.open_r");
  Alcotest.(check bool) "bridge capacitor" true (N.mem_device faulty "defect.open_c")

let test_resistor_short_and_open () =
  let b, _ = buffer_net () in
  let shorted = Cml_defects.Inject.apply b.B.net (D.Resistor_short { device = "x1.r1" }) in
  (match N.get_device shorted "x1.r1" with
  | N.Resistor { r; _ } -> Alcotest.(check (float 1e-9)) "short" 1.0 r
  | _ -> Alcotest.fail "resistor");
  let opened = Cml_defects.Inject.apply b.B.net (D.Resistor_open { device = "x1.r1" }) in
  match N.get_device opened "x1.r1" with
  | N.Resistor { r; _ } -> Alcotest.(check (float 1.0)) "open" 100e6 r
  | _ -> Alcotest.fail "resistor"

let test_bridge_between_outputs () =
  let b, _ = buffer_net () in
  let faulty =
    Cml_defects.Inject.apply b.B.net (D.Bridge { node1 = "x1.op"; node2 = "x1.on"; r = 1.0 })
  in
  Alcotest.(check bool) "bridge added" true (N.mem_device faulty "defect.bridge")

let test_describe () =
  Alcotest.(check string) "pipe text" "C-E pipe (4 kohm) on x1.q3"
    (D.describe (D.Pipe { device = "x1.q3"; r = 4e3 }))

(* ------------------------------------------------------------------ *)
(* Site enumeration *)

let test_enumerate_buffer_sites () =
  let b, _ = buffer_net () in
  let sites = Cml_defects.Sites.enumerate b.B.net ~prefix:"x1" in
  (* 3 BJTs x (1 pipe + 3 shorts + 3 opens) + 2 resistors x 2 + 1 bridge *)
  Alcotest.(check int) "site count" ((3 * 7) + 4 + 1) (List.length sites);
  let pipes =
    List.filter (function D.Pipe _ -> true | _ -> false) sites [@warning "-8"]
  in
  Alcotest.(check int) "3 pipes" 3 (List.length pipes)

let test_enumerate_respects_prefix () =
  let b = B.create () in
  let input = B.diff_dc_input b ~name:"in" ~value:true in
  let out1 = Cml_cells.Buffer_cell.add b ~name:"x1" ~input in
  ignore (Cml_cells.Buffer_cell.add b ~name:"x2" ~input:out1);
  let s1 = Cml_defects.Sites.enumerate b.B.net ~prefix:"x1" in
  let s2 = Cml_defects.Sites.enumerate b.B.net ~prefix:"x2" in
  Alcotest.(check int) "same shape" (List.length s1) (List.length s2)

let test_enumerate_pipe_values () =
  let b, _ = buffer_net () in
  let sites = Cml_defects.Sites.enumerate ~pipe_values:[ 1e3; 5e3 ] b.B.net ~prefix:"x1" in
  let pipes = List.filter (function D.Pipe _ -> true | _ -> false) sites in
  Alcotest.(check int) "2 per transistor" 6 (List.length pipes)

(* ------------------------------------------------------------------ *)
(* Campaign classification on the paper's canonical defects *)

let run_single defect =
  let c =
    Cml_defects.Campaign.run ~defects:[ defect ] ()
  in
  match c.Cml_defects.Campaign.entries with
  | [ { outcome = Cml_defects.Campaign.Measured (m, f); _ } ] -> (c.reference, m, f)
  | [ { outcome = Cml_defects.Campaign.Failed msg; _ } ] -> Alcotest.failf "sim failed: %s" msg
  | _ -> Alcotest.fail "expected one entry"

let test_campaign_q2_short_is_stuck () =
  (* Figure 2: C-E short on Q2 gives a stuck output *)
  let _, _, f = run_single (D.Terminal_short { device = "x3.q2"; t1 = "c"; t2 = "e" }) in
  Alcotest.(check bool) "stuck" true f.Cml_defects.Campaign.stuck

let test_campaign_q3_pipe_is_excursion_not_stuck () =
  (* Figure 4: 4 kohm pipe on Q3 nearly doubles the swing and heals *)
  let reference, m, f = run_single (D.Pipe { device = "x3.q3"; r = 4e3 }) in
  Alcotest.(check bool) "excessive excursion" true f.Cml_defects.Campaign.excessive_excursion;
  Alcotest.(check bool) "not stuck" true (not f.Cml_defects.Campaign.stuck);
  Alcotest.(check bool) "heals downstream" true f.Cml_defects.Campaign.healed;
  let ratio = m.Cml_defects.Campaign.dut_swing /. reference.Cml_defects.Campaign.dut_swing in
  Alcotest.(check bool)
    (Printf.sprintf "swing nearly doubled (x%.2f)" ratio)
    true
    (ratio > 1.7 && ratio < 2.6)

let test_campaign_benign_defect () =
  (* a pipe so weak it changes nothing measurable *)
  let _, _, f = run_single (D.Pipe { device = "x3.q3"; r = 10e6 }) in
  Alcotest.(check bool) "no excursion" true (not f.Cml_defects.Campaign.excessive_excursion);
  Alcotest.(check bool) "not stuck" true (not f.Cml_defects.Campaign.stuck)

let test_campaign_reference_sane () =
  let reference, _, _ = run_single (D.Pipe { device = "x3.q3"; r = 10e6 }) in
  Alcotest.(check bool) "reference swing nominal" true
    (reference.Cml_defects.Campaign.dut_swing > 0.2
    && reference.Cml_defects.Campaign.dut_swing < 0.3);
  Alcotest.(check bool) "reference delay measured" true
    (reference.Cml_defects.Campaign.final_delay <> None)

let test_campaign_summary_counts () =
  let c =
    Cml_defects.Campaign.run
      ~defects:
        [
          D.Pipe { device = "x3.q3"; r = 4e3 };
          D.Terminal_short { device = "x3.q2"; t1 = "c"; t2 = "e" };
          D.Pipe { device = "does.not.exist"; r = 4e3 };
        ]
      ()
  in
  let s = Cml_defects.Campaign.summary c in
  Alcotest.(check (option int)) "total" (Some 3) (List.assoc_opt "defects" s);
  Alcotest.(check (option int)) "failed" (Some 1) (List.assoc_opt "failed" s);
  Alcotest.(check bool) "one stuck at least" true
    (match List.assoc_opt "stuck-at" s with Some n -> n >= 1 | None -> false)

let test_campaign_warm_start_parity () =
  (* warm-starting every variant from the nominal trajectory is a
     pure solver accelerant: classification must not change.  One
     defect per family, including an Open_terminal whose extra node
     makes its variant layout-incompatible with the guide. *)
  let defects =
    [
      D.Pipe { device = "x3.q3"; r = 4e3 };
      D.Terminal_short { device = "x3.q2"; t1 = "c"; t2 = "e" };
      D.Open_terminal { device = "x3.q1"; terminal = "b" };
    ]
  in
  let warm = Cml_defects.Campaign.run ~jobs:1 ~warm_start:true ~defects () in
  let cold = Cml_defects.Campaign.run ~jobs:1 ~warm_start:false ~defects () in
  Alcotest.(check (list (pair string int)))
    "summaries identical with warm start on/off"
    (Cml_defects.Campaign.summary cold)
    (Cml_defects.Campaign.summary warm)

let test_campaign_bad_resistance_fails_one_variant () =
  (* a non-positive (or NaN) defect resistance fails its own variant
     at injection; the campaign still completes and measures the rest,
     whatever the slicing *)
  let bad =
    [
      D.Pipe { device = "x2.q3"; r = 0. };
      D.Pipe { device = "x2.q3"; r = -1e3 };
      D.Bridge { node1 = "x2.op"; node2 = "x2.on"; r = Float.nan };
    ]
  in
  List.iter
    (fun batch ->
      let c =
        Cml_defects.Campaign.run ~stages:4 ~dut:2 ~freq:1e9 ~tstop:4e-9 ~jobs:1 ~batch
          ~defects:(D.Pipe { device = "x2.q3"; r = 4e3 } :: bad)
          ()
      in
      match c.Cml_defects.Campaign.entries with
      | { outcome = Cml_defects.Campaign.Measured _; _ } :: rest ->
          Alcotest.(check int) "every entry reported" (List.length bad) (List.length rest);
          List.iter
            (fun e ->
              match e.Cml_defects.Campaign.outcome with
              | Cml_defects.Campaign.Failed msg ->
                  Alcotest.(check string) "named reason" "injection failed" msg
              | Cml_defects.Campaign.Measured _ ->
                  Alcotest.failf "%s measured" (D.describe e.Cml_defects.Campaign.defect))
            rest
      | _ -> Alcotest.failf "the 4 kohm pipe was not measured (batch=%b)" batch)
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Property: slicing is a pure scheduling choice — for any defect list
   and either seeding policy, the classification of every entry in a
   batched (16-variant slices, shared symbolic donors) campaign
   matches the unbatched (one-variant slices) one. *)

let defect_pool =
  [|
    D.Pipe { device = "x2.q3"; r = 4e3 };
    D.Pipe { device = "x2.q3"; r = 10e6 };
    D.Terminal_short { device = "x2.q2"; t1 = "c"; t2 = "e" };
    D.Resistor_short { device = "x2.r1" };
    D.Open_terminal { device = "x2.q1"; terminal = "b" };
  |]

let classification c =
  List.map
    (fun e ->
      ( D.describe e.Cml_defects.Campaign.defect,
        match e.Cml_defects.Campaign.outcome with
        | Cml_defects.Campaign.Failed _ -> "failed"
        | Cml_defects.Campaign.Measured (_, f) ->
            Printf.sprintf "stuck=%b exc=%b red=%b delay=%b iddq=%b healed=%b"
              f.Cml_defects.Campaign.stuck f.Cml_defects.Campaign.excessive_excursion
              f.Cml_defects.Campaign.reduced_swing f.Cml_defects.Campaign.delay_detectable
              f.Cml_defects.Campaign.iddq_detectable f.Cml_defects.Campaign.healed ))
    c.Cml_defects.Campaign.entries

let prop_batch_matches_sequential =
  QCheck2.Test.make ~name:"batched campaign classifies like sequential (warm and cold)" ~count:3
    QCheck2.Gen.(list_size (int_range 1 4) (int_range 0 (Array.length defect_pool - 1)))
    (fun picks ->
      let defects = List.map (fun i -> defect_pool.(i)) picks in
      List.for_all
        (fun warm_start ->
          let go batch =
            Cml_defects.Campaign.run ~stages:4 ~dut:2 ~freq:1e9 ~tstop:4e-9 ~jobs:1
              ~warm_start ~batch ~defects ()
          in
          let batched = go true and sequential = go false in
          classification batched = classification sequential
          && Cml_defects.Campaign.summary batched = Cml_defects.Campaign.summary sequential)
        [ true; false ])

(* ------------------------------------------------------------------ *)
(* Campaign on a compiled .bench design *)

let test_campaign_run_design_smoke () =
  (* one AND cell compiled from .bench text: every enumerated defect
     measures without a sim failure, and a tail-starving pipe is not
     classified benign *)
  let c =
    Cml_logic.Bench_format.of_string "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n"
  in
  let d = Cml_cells.Compile.compile ~freq:200e6 c in
  let golden = Cml_cells.Compile.netlist d in
  let defects =
    Cml_defects.Sites.enumerate golden ~prefix:"y" ~pipe_values:[ 4e3 ]
  in
  Alcotest.(check bool) "sites enumerate non-empty" true (defects <> []);
  let dut =
    match Cml_cells.Compile.find_cell d "y" with
    | Some diff -> diff
    | None -> Alcotest.fail "cell y unresolved"
  in
  let campaign =
    Cml_defects.Campaign.run_design ~freq:200e6 ~tstop:10e-9 ~jobs:1
      ~input:d.Cml_cells.Compile.input ~dut ~final:dut ~golden ~defects ()
  in
  Alcotest.(check int) "every defect measured"
    (List.length defects)
    (List.length campaign.Cml_defects.Campaign.entries);
  List.iter
    (fun e ->
      match e.Cml_defects.Campaign.outcome with
      | Cml_defects.Campaign.Measured _ -> ()
      | Cml_defects.Campaign.Failed msg ->
          Alcotest.failf "%s failed: %s" (Cml_defects.Defect.describe e.Cml_defects.Campaign.defect) msg)
    campaign.Cml_defects.Campaign.entries;
  let tail_pipe_flagged =
    List.exists
      (fun e ->
        match (e.Cml_defects.Campaign.defect, e.Cml_defects.Campaign.outcome) with
        | Cml_defects.Defect.Pipe { device; _ }, Cml_defects.Campaign.Measured (_, fl) ->
            String.length device >= 3
            && String.sub device (String.length device - 3) 3 = ".q3"
            && Cml_defects.Campaign.flag_labels fl <> []
        | _ -> false)
      campaign.Cml_defects.Campaign.entries
  in
  Alcotest.(check bool) "a tail pipe is detectable" true tail_pipe_flagged

(* ------------------------------------------------------------------ *)
(* Fanout-cone variants *)

module Cone = Cml_defects.Cone
module C = Cml_defects.Campaign
module E = Cml_spice.Engine
module T = Cml_spice.Transient

let c432 () = Cml_cells.Compile.compile ~freq:200e6 (Cml_logic.Bench_circuits.c432_surrogate ())

let labels = function C.Failed _ -> [ "failed" ] | C.Measured (_, f) -> C.flag_labels f

let test_cone_shapes () =
  let design = c432 () in
  let golden = Cml_cells.Compile.netlist design in
  Alcotest.(check string) "default DUT" "n36" (Cml_cells.Compile.default_dut design);
  let cone = Cone.attacked golden ~cells:[ "n36" ] in
  Alcotest.(check int) "unknowns" 430 (Cone.unknowns cone);
  Alcotest.(check int) "golden unknowns" 949 (Cone.golden_unknowns cone);
  Alcotest.(check bool) "under half: selected" true (Cone.selected cone);
  Alcotest.(check int) "boundary sources" 64 (List.length (Cone.boundary cone));
  Alcotest.(check int) "on ideal nets" 6 (List.length (List.filter snd (Cone.boundary cone)));
  (* 46 cells own devices; with the free NOT aliases they drive, the
     cone covers 55 of the 153 registered cells *)
  Alcotest.(check int) "device-owning cells" 46 (List.length (Cone.cells cone));
  let owner name = List.hd (String.split_on_char '.' name) in
  let registered = Cml_cells.Builder.cells design.Cml_cells.Compile.builder in
  let in_cone (_, (d : B.diff)) = List.mem (owner (N.node_name golden d.B.p)) (Cone.cells cone) in
  Alcotest.(check (pair int int)) "registered cells" (55, 153)
    (List.length (List.filter in_cone registered), List.length registered);
  let chain = (Cml_cells.Chain.build ~stages:8 ~freq:100e6 ()).Cml_cells.Chain.builder.B.net in
  for d = 2 to 8 do
    let cone = Cone.attacked chain ~cells:[ Cml_cells.Chain.stage_name d ] in
    let stage = Printf.sprintf "stage %d" d in
    Alcotest.(check (list string)) (stage ^ " cells")
      (List.init (10 - d) (fun i -> Cml_cells.Chain.stage_name (d - 1 + i)))
      (Cone.cells cone);
    Alcotest.(check int) (stage ^ " unknowns") (32 - (3 * (d - 2))) (Cone.unknowns cone);
    Alcotest.(check bool) (stage ^ " selected") (d = 8) (Cone.selected cone)
  done

(* A five-gate design whose output buffer's cone (the buffer and its
   driver) is 21 of 44 unknowns: every site of the buffer must
   classify on the cone exactly as on the whole netlist, and the two
   tail shorts that reach back into the driver must fall back. *)
let test_cone_design_parity () =
  let circuit =
    Cml_logic.Bench_format.of_string
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nn1 = AND(a, b)\nn2 = OR(b, c)\n\
       n3 = XOR(n1, n2)\nn4 = AND(n3, b)\ny = BUF(n4)\n"
  in
  let d = Cml_cells.Compile.compile ~freq:200e6 circuit in
  let golden = Cml_cells.Compile.netlist d in
  let defects = Cml_defects.Sites.enumerate golden ~prefix:"y" ~pipe_values:[ 4e3 ] in
  let dut = Option.get (Cml_cells.Compile.find_cell d "y") in
  let input = d.Cml_cells.Compile.input and freq = 200e6 and tstop = 5e-9 in
  let camp = C.run_design ~freq ~tstop ~jobs:1 ~input ~dut ~final:dut ~golden ~defects () in
  let full defect =
    let m = C.measure_design ~input ~dut ~final:dut (Cml_defects.Inject.apply golden defect) ~freq ~tstop in
    labels (C.Measured (m, C.classify ~proc:Cml_cells.Process.default ~reference:camp.C.reference m))
  in
  List.iter
    (fun e ->
      Alcotest.(check (list string)) (D.describe e.C.defect) (full e.C.defect) (labels e.C.outcome))
    camp.C.entries;
  let metric k (v : Cml_telemetry.Manifest.variant) = List.assoc_opt k v.v_metrics in
  let fell_back = List.filter (fun v -> metric "fallback" v = Some 1.0) camp.C.variants in
  Alcotest.(check (list string)) "fallbacks" [ "c-e short on y.q3"; "b-c short on y.q3" ]
    (List.map (fun (v : Cml_telemetry.Manifest.variant) -> v.v_name) fell_back);
  Alcotest.(check bool) "every other site on the cone" true
    (List.for_all
       (fun v -> metric "fallback" v = Some 1.0 || metric "unknowns" v <= Some 22.0)
       camp.C.variants);
  Alcotest.(check (option string)) "summary line"
    (Some "24 of 26 variants on a 21-unknown cone, 2 fallbacks")
    (Cml_telemetry.Manifest.cone_line camp.C.variants)

(* On the 8-stage chain only stage 8 passes the cone rule.  Its tail
   C-E short saturates stage 7, whose base-collector junction then
   draws about 1 A through the ideal boundary source on x6.op — a
   current the real driver's load resistor would stop — so the variant
   must fall back and classify as the full chain does. *)
let test_cone_chain_fallback () =
  let freq = 100e6 and tstop = 20e-9 in
  let chain = Cml_cells.Chain.build ~stages:8 ~freq () in
  let golden = chain.Cml_cells.Chain.builder.B.net in
  let short = D.Terminal_short { device = "x8.q3"; t1 = "c"; t2 = "e" } in
  let pipe = D.Pipe { device = "x8.q3"; r = 1e3 } in
  let camp = C.run ~freq ~tstop ~dut:8 ~jobs:1 ~defects:[ short; pipe ] () in
  let full defect =
    let m = C.measure_chain chain (Cml_defects.Inject.apply golden defect) ~freq ~tstop ~dut:8 in
    labels (C.Measured (m, C.classify ~proc:Cml_cells.Process.default ~reference:camp.C.reference m))
  in
  List.iter
    (fun e ->
      Alcotest.(check (list string)) (D.describe e.C.defect) (full e.C.defect) (labels e.C.outcome))
    camp.C.entries;
  let metrics =
    List.map (fun (v : Cml_telemetry.Manifest.variant) -> v.v_metrics) camp.C.variants
  in
  let get k m = Option.get (List.assoc_opt k m) in
  (match metrics with
  | [ s; p ] ->
      Alcotest.(check (float 0.0)) "short falls back" 1.0 (get "fallback" s);
      Alcotest.(check bool) "short's draw exceeds a tail current" true
        (get "boundary_draw" s > Cml_cells.Process.default.Cml_cells.Process.i_tail);
      Alcotest.(check (float 0.0)) "short measured on the chain" 32.0 (get "unknowns" s);
      Alcotest.(check (float 0.0)) "pipe stays on the cone" 0.0 (get "fallback" p);
      Alcotest.(check (float 0.0)) "pipe's cone" 14.0 (get "unknowns" p)
  | _ -> Alcotest.fail "two variants expected");
  let counter name =
    match List.assoc_opt name camp.C.metrics with
    | Some (Cml_telemetry.Metrics.Counter n) -> n
    | Some _ | None -> 0
  in
  Alcotest.(check (pair int int)) "cone counters" (1, 1)
    (counter "campaign.cone_variants", counter "campaign.cone_fallbacks");
  (* stage 8 has nothing downstream: its cut at the healing depth is
     the cone itself, so no variant tries one *)
  let cone = Cone.attacked golden ~cells:[ "x8" ] in
  Alcotest.(check int) "stage-8 cut is the cone" (Cone.unknowns cone)
    (Cone.unknowns (Cone.cut cone ~depth:Cone.cut_depth));
  Alcotest.(check bool) "no variant tries a cut" true
    (List.for_all (fun m -> not (List.mem_assoc "cut" m)) metrics);
  Alcotest.(check (pair int int)) "cut counters" (0, 0)
    (counter "campaign.cut_variants", counter "campaign.cut_aborts");
  let reference = C.chain_reference chain ~freq ~tstop:1e-9 ~dut:8 in
  Alcotest.(check bool) "the planned cone carries no cut" true
    (List.map Cone.depth (Cone.plan reference.C.trajectory [ pipe ] pipe) = [ None ])

(* The guide's t = 0 row is the reference operating point on the
   cone's nodes, so it is a DC point of the cone: Newton only has to
   fill in the branch currents (the boundary ones start at 0). *)
let test_cone_projected_dc () =
  let golden = Cml_cells.Compile.netlist (c432 ()) in
  let tstop = 0.3e-9 in
  let reference =
    T.run
      ~breakpoints:(T.collect_breakpoints golden ~tstop)
      (E.compile golden) golden
      (T.config ~tstop ~max_step:10e-12 ())
  in
  let cone = Cone.drive (Cone.attacked golden ~cells:[ "n36" ]) ~reference:(Cone.of_run golden reference) in
  let sim = E.compile (Cone.netlist cone) in
  Alcotest.(check int) "compiled unknowns" 430 (E.unknown_count sim);
  match E.newton sim ~time:0.0 ~integ:E.Dcop (Option.get (Cone.guide cone)).T.data.(0) with
  | None -> Alcotest.fail "projected row did not converge"
  | Some (_, iters) ->
      Alcotest.(check bool) (Printf.sprintf "%d iterations <= 2" iters) true (iters <= 2);
      Alcotest.(check bool) "cone draws part of the supply" true
        (Cone.nominal_supply cone > 0.0)

(* The c432 campaign's reference runs a transient of the toggling
   input's fanout cone only (430 of 949 unknowns) on top of the full DC
   point.  Its measurement must match the full-netlist run's within the
   classifier's finest margins by far. *)
let test_cut_reference () =
  let freq = 250e6 and tstop = 4e-9 in
  let design = Cml_cells.Compile.compile ~freq (Cml_logic.Bench_circuits.c432_surrogate ()) in
  let golden = Cml_cells.Compile.netlist design in
  let input = design.Cml_cells.Compile.input in
  let dut = Option.get (Cml_cells.Compile.find_cell design "n36") in
  let final = List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs in
  let r = C.design_reference ~input ~dut ~final golden ~freq ~tstop in
  Alcotest.(check (option int)) "cut on the active cone" (Some 430) r.C.active_cone;
  let cut = r.C.measurement in
  let full = C.measure_design ~input ~dut ~final golden ~freq ~tstop in
  let within what tol a b =
    Alcotest.(check bool) (Printf.sprintf "%s: %g vs %g" what a b) true (Float.abs (a -. b) <= tol)
  in
  List.iter
    (fun (what, f) -> within what 1e-3 (f cut) (f full))
    [
      ("dut vlow", fun m -> m.C.dut_vlow);
      ("dut vhigh", fun m -> m.C.dut_vhigh);
      ("dut swing", fun m -> m.C.dut_swing);
      ("final vlow", fun m -> m.C.final_vlow);
      ("final vhigh", fun m -> m.C.final_vhigh);
      ("final swing", fun m -> m.C.final_swing);
    ];
  (match (cut.C.final_delay, full.C.final_delay) with
  | Some a, Some b -> within "final delay" 1e-12 a b
  | _ -> Alcotest.fail "both references must measure a delay");
  within "supply" (1e-3 *. full.C.supply_current) cut.C.supply_current full.C.supply_current;
  (* and it is pinned bit for bit: measuring the cut run from its own
     rows must read what its streamed probes read *)
  List.iter
    (fun (what, pinned, v) -> Alcotest.(check (float 0.0)) ("pinned " ^ what) pinned v)
    [
      ("dut vlow", 0x1.87084f4d6a3a3p+1, cut.C.dut_vlow);
      ("dut vhigh", 0x1.a713c04f8602dp+1, cut.C.dut_vhigh);
      ("dut swing", 0x1.005b8810de45p-2, cut.C.dut_swing);
      ("final vlow", 0x1.86b16abdd24f6p+1, cut.C.final_vlow);
      ("final vhigh", 0x1.a6920661cde7p+1, cut.C.final_vhigh);
      ("final swing", 0x1.fdccd1c1388fp-3, cut.C.final_swing);
      ("final delay", 0x1.ef37209d76ea4p-31, Option.get cut.C.final_delay);
      ("supply", 0x1.b197e8d27ff22p-3, cut.C.supply_current);
      ("nominal low", 0x1.8766ab2e03001p+1, fst r.C.nominal);
      ("nominal high", 0x1.a54aac5d43349p+1, snd r.C.nominal);
    ]

(* A reference is measured from its own dense run; the same run
   measured through streaming probe observers reads bit for bit the
   same. *)
let test_reference_from_trajectory () =
  let freq = 100e6 and tstop = 4e-9 in
  let chain = Cml_cells.Chain.build ~stages:8 ~freq () in
  let r = C.chain_reference chain ~freq ~tstop ~dut:3 in
  let streamed =
    C.measure_chain ~breakpoints:r.C.breakpoints chain chain.Cml_cells.Chain.builder.B.net ~freq
      ~tstop ~dut:3
  in
  Alcotest.(check bool) "full reference" true (r.C.active_cone = None);
  Alcotest.(check bool) "bit for bit" true (compare r.C.measurement streamed = 0)

(* The cut needs a small active cone: the chain (every stage switches),
   a clocked design (the clock reaches every flip-flop) and a design
   with two toggling inputs all run the full reference. *)
let test_full_reference_cases () =
  let freq = 200e6 and tstop = 0.2e-9 in
  let chain = Cml_cells.Chain.build ~stages:8 ~freq () in
  Alcotest.(check (option bool)) "chain's active cone over half" (Some false)
    (Option.map Cone.selected (Cone.active chain.Cml_cells.Chain.builder.B.net));
  Alcotest.(check (option int)) "chain" None
    (C.chain_reference chain ~freq ~tstop ~dut:3).C.active_cone;
  let design_cut ?stimuli circuit =
    let d = Cml_cells.Compile.compile ~freq ?stimuli circuit in
    let out = snd (List.hd d.Cml_cells.Compile.outputs) in
    let golden = Cml_cells.Compile.netlist d in
    (* by the cone rule, not by a fallback *)
    Alcotest.(check (option bool)) "active cone over half" (Some false)
      (Option.map Cone.selected (Cone.active golden));
    let r =
      C.design_reference ~input:d.Cml_cells.Compile.input ~dut:out ~final:out golden ~freq ~tstop
    in
    (r.C.active_cone, r.C.unknowns, Cone.golden_unknowns (Option.get (Cone.active golden)))
  in
  let cut, unknowns, golden_unknowns = design_cut (Cml_logic.Bench_format.s27 ()) in
  Alcotest.(check (option int)) "clocked s27" None cut;
  Alcotest.(check int) "s27 ran every unknown" golden_unknowns unknowns;
  let c432 = Cml_logic.Bench_circuits.c432_surrogate () in
  let first, second =
    match c432.Cml_logic.Circuit.inputs with a :: b :: _ -> (fst a, fst b) | _ -> assert false
  in
  let stimuli = Cml_cells.Compile.[ (first, Toggle); (second, Toggle) ] in
  let cut, _, _ = design_cut ~stimuli c432 in
  Alcotest.(check (option int)) "two toggling inputs" None cut

(* A cut-reference campaign stays deterministic at any slicing. *)
let test_cut_campaign_slicing () =
  let freq = 200e6 and tstop = 1e-9 in
  let design = c432 () in
  let golden = Cml_cells.Compile.netlist design in
  let dut = Option.get (Cml_cells.Compile.find_cell design "n36") in
  let final = List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs in
  let defects =
    List.filteri (fun i _ -> i < 4) (Cml_defects.Sites.enumerate golden ~prefix:"n36" ~pipe_values:[ 4e3 ])
  in
  let run ~jobs ~batch =
    C.run_design ~freq ~tstop ~jobs ~batch ~golden ~input:design.Cml_cells.Compile.input ~dut ~final
      ~defects ()
  in
  let alone = run ~jobs:1 ~batch:false and sliced = run ~jobs:2 ~batch:true in
  Alcotest.(check (option int)) "cut reference" (Some 430) alone.C.active_cone;
  Alcotest.(check bool) "entries identical" true (compare alone.C.entries sliced.C.entries = 0)

(* The cut at the healing depth of the c432 default DUT's cone: the DUT
   and its one reader n72, whose outputs (the cut nets) the three
   fringe cells n90, n132 and n143 read. *)
let test_cut_shapes () =
  let golden = Cml_cells.Compile.netlist (c432 ()) in
  let cone = Cone.attacked golden ~cells:[ "n36" ] in
  let cut = Cone.cut cone ~depth:Cone.cut_depth in
  Alcotest.(check int) "healing depth" 1 Cone.cut_depth;
  Alcotest.(check (list string)) "kept cells" [ "n36"; "n72" ] (Cone.cells cut);
  Alcotest.(check int) "unknowns" 65 (Cone.unknowns cut);
  Alcotest.(check int) "golden unknowns" 949 (Cone.golden_unknowns cut);
  Alcotest.(check (list string)) "depth 0 keeps the DUT alone" [ "n36" ]
    (Cone.cells (Cone.cut cone ~depth:0));
  Alcotest.(check bool) "a deeper cut is larger" true
    (Cone.unknowns (Cone.cut cone ~depth:2) > Cone.unknowns cut);
  let boundary = List.map fst (Cone.boundary cut) in
  Alcotest.(check bool) "the fringe's other inputs are held" true
    (List.mem "n73.op" boundary && List.mem "n83.on" boundary);
  Alcotest.(check bool) "the cut nets are simulated, not held" false
    (List.mem "n72.op" boundary || List.mem "n72.on" boundary)

(* Four n36 sites of the c432 surrogate through the cut at the healing
   depth.  A zero-deviation site and a healing one stay on the cut; a
   stuck site aborts at the DC check, a mid-run deviator at a later
   accepted step; each classifies as on the full netlist. *)
let test_cut_sites () =
  let freq = 200e6 and tstop = 1.5e-9 in
  let design = c432 () in
  let golden = Cml_cells.Compile.netlist design in
  let input = design.Cml_cells.Compile.input in
  let dut = Option.get (Cml_cells.Compile.find_cell design "n36") in
  let final = List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs in
  let names =
    [
      "b-c short on n36.lsn.qf";
      "C-E pipe (4 kohm) on n36.lsn.qf";
      "c-e short on n36.q1";
      "open at c of n36.lsn.qt";
    ]
  in
  let defects =
    List.filter
      (fun d -> List.mem (D.describe d) names)
      (Cml_defects.Sites.enumerate golden ~prefix:"n36" ~pipe_values:[ 4e3 ])
  in
  Alcotest.(check int) "four sites" 4 (List.length defects);
  let camp = C.run_design ~freq ~tstop ~jobs:1 ~input ~dut ~final ~golden ~defects () in
  let full defect =
    let m = C.measure_design ~input ~dut ~final (Cml_defects.Inject.apply golden defect) ~freq ~tstop in
    labels (C.Measured (m, C.classify ~proc:Cml_cells.Process.default ~reference:camp.C.reference m))
  in
  let eps = C.cut_epsilon Cml_cells.Process.default in
  Alcotest.(check (float 1e-12)) "epsilon: swing / 25" 0.010 eps;
  List.iter2
    (fun e (v : Cml_telemetry.Manifest.variant) ->
      let name = v.v_name in
      let metric k = List.assoc_opt k v.v_metrics in
      Alcotest.(check (list string)) (name ^ " classes") (full e.C.defect) (labels e.C.outcome);
      Alcotest.(check (option (float 0.0))) (name ^ " tried the cut") (Some 1.0) (metric "cut");
      let is what expected key =
        Alcotest.(check (option (float 0.0))) (name ^ what) expected (metric key)
      in
      match name with
      | "b-c short on n36.lsn.qf" | "C-E pipe (4 kohm) on n36.lsn.qf" ->
          is " on the cut" (Some 0.0) "cut_abort";
          is " cut unknowns" (Some 65.0) "unknowns";
          Alcotest.(check bool) (name ^ " within a mV") true (Option.get (metric "cut_deviation") < 1e-3)
      | "c-e short on n36.q1" ->
          is " aborts" (Some 1.0) "cut_abort";
          is " at the DC check" (Some 0.0) "cut_abort_at";
          is " on the cone" (Some 0.0) "fallback"
      | _ ->
          is " aborts" (Some 1.0) "cut_abort";
          let at = Option.get (metric "cut_abort_at") in
          Alcotest.(check bool) (Printf.sprintf "%s mid-run (%g s)" name at) true
            (at > 0.0 && at < tstop);
          Alcotest.(check bool) (name ^ " beyond epsilon") true
            (Option.get (metric "cut_deviation") > eps);
          is " on the cone" (Some 0.0) "fallback")
    camp.C.entries camp.C.variants;
  let counter name =
    match List.assoc_opt name camp.C.metrics with
    | Some (Cml_telemetry.Metrics.Counter n) -> n
    | Some _ | None -> 0
  in
  Alcotest.(check (list int)) "cut, abort and cone counters" [ 2; 2; 2 ]
    (List.map counter [ "campaign.cut_variants"; "campaign.cut_aborts"; "campaign.cone_variants" ]);
  Alcotest.(check (option string)) "cut line"
    (Some "2 of 4 cone variants on a 65-unknown cut (depth 1), 2 aborts")
    (Cml_telemetry.Manifest.cut_line camp.C.variants);
  let pooled = C.run_design ~freq ~tstop ~jobs:2 ~input ~dut ~final ~golden ~defects () in
  Alcotest.(check bool) "cut decisions identical at jobs 1 and 2" true
    (compare camp.C.entries pooled.C.entries = 0)

(* A few c432 sites, at one and two jobs, each from an empty layout
   table and from one a same-process run left warm: first
   factorizations adopt whatever analyses the table holds only where a
   pivot search agrees, so all four publish the same solver counters
   and per-variant metrics. *)
let test_adoption_independent () =
  let freq = 200e6 and tstop = 1.5e-9 in
  let design = c432 () in
  let golden = Cml_cells.Compile.netlist design in
  let input = design.Cml_cells.Compile.input in
  let dut = Option.get (Cml_cells.Compile.find_cell design "n36") in
  let final = List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs in
  let names = [ "b-c short on n36.lsn.qf"; "c-e short on n36.q1" ] in
  let defects =
    List.filter
      (fun d -> List.mem (D.describe d) names)
      (Cml_defects.Sites.enumerate golden ~prefix:"n36" ~pipe_values:[ 4e3 ])
  in
  Alcotest.(check int) "two sites" 2 (List.length defects);
  let run ~jobs =
    let before = E.symbolic_adoptions () in
    let camp = C.run_design ~freq ~tstop ~jobs ~input ~dut ~final ~golden ~defects () in
    let solver =
      List.filter (fun (k, _) -> String.starts_with ~prefix:"solver." k) camp.C.metrics
    in
    let variants =
      List.map
        (fun (v : Cml_telemetry.Manifest.variant) -> (v.v_name, v.v_classes, v.v_metrics))
        camp.C.variants
    in
    ((solver, variants), (E.symbolic_adoptions ()).E.adopted - before.E.adopted)
  in
  let runs =
    List.concat_map
      (fun jobs ->
        Layout_table.evict ();
        let cold = run ~jobs in
        [ (Printf.sprintf "jobs %d cold" jobs, cold); (Printf.sprintf "jobs %d warm" jobs, run ~jobs) ])
      [ 1; 2 ]
  in
  let (reference, _) = snd (List.hd runs) in
  Alcotest.(check bool) "solver counters published" true (fst reference <> []);
  List.iter
    (fun (what, (digest, adopted)) ->
      Alcotest.(check bool) (Printf.sprintf "%s (%d adopted) equals jobs 1 cold" what adopted) true
        (compare digest reference = 0))
    runs;
  Alcotest.(check bool) "the warm runs adopt" true
    (List.for_all (fun (what, (_, adopted)) -> adopted > 0 || String.ends_with ~suffix:"cold" what) runs)

(* A final-output pair whose true side a cone owns and whose
   complement it does not straddles the cone variant's run and the
   reference: the outside side is read on the run's time axis, so the
   cone variant is measured and classifies as the full faulty netlist
   does.  The poison, a pipe of the smallest positive resistance (an
   infinite conductance), diverges on the cone and on the full netlist:
   it fails alone, whatever the scheduling. *)
let test_poisoned_variant () =
  let circuit =
    Cml_logic.Bench_format.of_string
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nn1 = AND(a, b)\nn2 = OR(b, c)\n\
       n3 = XOR(n1, n2)\nn4 = AND(n3, b)\ny = BUF(n4)\n"
  in
  let freq = 200e6 and tstop = 5e-9 in
  let d = Cml_cells.Compile.compile ~freq circuit in
  let golden = Cml_cells.Compile.netlist d in
  let input = d.Cml_cells.Compile.input in
  let cell name = Option.get (Cml_cells.Compile.find_cell d name) in
  let dut = cell "y" in
  (* "n3" is the compiled AND(a, b), outside y's cone (y and n6) *)
  let final = { dut with B.n = (cell "n3").B.n } in
  let straddled = List.hd (Cml_defects.Sites.enumerate golden ~prefix:"y" ~pipe_values:[ 4e3 ]) in
  let poison = D.Pipe { device = "y.q1"; r = Float.min_float *. Float.epsilon } in
  let full = List.hd (Cml_defects.Sites.enumerate golden ~prefix:"n3" ~pipe_values:[ 4e3 ]) in
  let run ~jobs ~batch =
    C.run_design ~freq ~tstop ~jobs ~batch ~input ~dut ~final ~golden
      ~defects:[ straddled; poison; full ] ()
  in
  let alone = run ~jobs:1 ~batch:false and pooled = run ~jobs:2 ~batch:true in
  (match (alone.C.entries, alone.C.variants) with
  | ( [ { outcome = C.Measured _ as cone; _ }; { outcome = C.Failed reason; _ }; { outcome = C.Measured _; _ } ],
      v :: _ ) ->
      Alcotest.(check (option (float 0.0))) "measured on its cone" (Some 0.0)
        (List.assoc_opt "fallback" v.Cml_telemetry.Manifest.v_metrics);
      let faulty = Cml_defects.Inject.apply golden straddled in
      let m = C.measure_design ~input ~dut ~final faulty ~freq ~tstop in
      let reference = alone.C.reference in
      Alcotest.(check (list string)) "classes of the full faulty netlist"
        (labels (C.Measured (m, C.classify ~proc:Cml_cells.Process.default ~reference m)))
        (labels cone);
      Alcotest.(check string) "the poison fails with a named reason" "dc operating point" reason
  | _ -> Alcotest.fail "expected the cone variant measured, the poison failed, the full one measured");
  Alcotest.(check bool) "entries identical at jobs 1 and 2" true
    (compare alone.C.entries pooled.C.entries = 0)

let () =
  Alcotest.run "defects"
    [
      ( "inject",
        [
          Alcotest.test_case "pipe" `Quick test_pipe_adds_resistor;
          Alcotest.test_case "pipe kind check" `Quick test_pipe_on_resistor_rejected;
          Alcotest.test_case "terminal short" `Quick test_short_between_terminals;
          Alcotest.test_case "unknown device" `Quick test_unknown_device;
          Alcotest.test_case "open splits node" `Quick test_open_splits_node;
          Alcotest.test_case "resistor short/open" `Quick test_resistor_short_and_open;
          Alcotest.test_case "bridge" `Quick test_bridge_between_outputs;
          Alcotest.test_case "describe" `Quick test_describe;
        ] );
      ( "sites",
        [
          Alcotest.test_case "buffer sites" `Quick test_enumerate_buffer_sites;
          Alcotest.test_case "prefix scoping" `Quick test_enumerate_respects_prefix;
          Alcotest.test_case "pipe values" `Quick test_enumerate_pipe_values;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "q2 short is stuck (fig 2)" `Slow test_campaign_q2_short_is_stuck;
          Alcotest.test_case "q3 pipe is healed excursion (fig 4)" `Slow
            test_campaign_q3_pipe_is_excursion_not_stuck;
          Alcotest.test_case "benign defect" `Slow test_campaign_benign_defect;
          Alcotest.test_case "reference sanity" `Slow test_campaign_reference_sane;
          Alcotest.test_case "summary counts" `Slow test_campaign_summary_counts;
          Alcotest.test_case "warm-start parity" `Slow test_campaign_warm_start_parity;
          Alcotest.test_case "compiled design smoke" `Slow test_campaign_run_design_smoke;
          Alcotest.test_case "bad resistance fails one variant" `Slow
            test_campaign_bad_resistance_fails_one_variant;
        ] );
      ( "cone",
        [
          Alcotest.test_case "c432 and chain cone shapes" `Quick test_cone_shapes;
          Alcotest.test_case "design sites classify as on the full netlist" `Slow
            test_cone_design_parity;
          Alcotest.test_case "chain stage-8 tail short falls back" `Slow test_cone_chain_fallback;
          Alcotest.test_case "projected t = 0 row is a cone DC point" `Slow test_cone_projected_dc;
          Alcotest.test_case "cut reference matches the full one" `Slow test_cut_reference;
          Alcotest.test_case "reference from its trajectory equals one from streams" `Slow
            test_reference_from_trajectory;
          Alcotest.test_case "chain, clocked and two-input designs run the full reference" `Slow
            test_full_reference_cases;
          Alcotest.test_case "cut-reference campaign is slicing-independent" `Slow
            test_cut_campaign_slicing;
          Alcotest.test_case "c432 cut at the healing depth" `Quick test_cut_shapes;
          Alcotest.test_case "c432 sites on the cut, aborted at DC and mid-run" `Slow
            test_cut_sites;
          Alcotest.test_case "a poisoned variant fails alone" `Slow test_poisoned_variant;
          Alcotest.test_case "c432 counters independent of the layout table and jobs" `Slow
            test_adoption_independent;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_batch_matches_sequential ] );
    ]
