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
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_batch_matches_sequential ] );
    ]
