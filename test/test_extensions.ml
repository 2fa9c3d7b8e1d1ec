(* Tests for the extension modules: parametric process variation,
   Monte-Carlo robustness of the DFT scheme, the section-6.6
   phase-sensitivity (fault masking) experiment, Iddq classification
   in the defect campaign, and toggle-directed pattern generation. *)

module N = Cml_spice.Netlist
module V = Cml_defects.Variation
module L = Cml_logic
module Dft = Cml_dft

let proc = Cml_cells.Process.default

(* ------------------------------------------------------------------ *)
(* Variation *)

let chain_net () =
  let chain = Cml_cells.Chain.build_dc ~stages:3 ~value:true () in
  chain.Cml_cells.Chain.builder.Cml_cells.Builder.net

let resistor_values net =
  List.filter_map
    (fun d -> match d with N.Resistor { name; r; _ } -> Some (name, r) | _ -> None)
    (N.devices net)

let test_perturb_deterministic () =
  let net = chain_net () in
  let a = V.perturb ~seed:7 net and b = V.perturb ~seed:7 net in
  Alcotest.(check bool) "same seed, same values" true
    (resistor_values a = resistor_values b)

let test_perturb_seed_matters () =
  let net = chain_net () in
  let a = V.perturb ~seed:7 net and b = V.perturb ~seed:8 net in
  Alcotest.(check bool) "different seeds differ" true
    (resistor_values a <> resistor_values b)

let test_perturb_leaves_original () =
  let net = chain_net () in
  let before = resistor_values net in
  ignore (V.perturb ~seed:7 net);
  Alcotest.(check bool) "original untouched" true (before = resistor_values net)

let test_perturb_magnitude () =
  let net = chain_net () in
  let p = V.perturb ~seed:3 net in
  List.iter2
    (fun (name, r0) (_, r1) ->
      let rel = Float.abs (r1 -. r0) /. r0 in
      if rel > 0.15 then Alcotest.failf "%s moved %.1f%% (sigma is 2%%)" name (100.0 *. rel);
      if r1 <= 0.0 then Alcotest.failf "%s went non-positive" name)
    (resistor_values net) (resistor_values p)

let test_perturb_sources_untouched () =
  let net = chain_net () in
  let p = V.perturb ~seed:3 net in
  match (N.get_device net "vdd", N.get_device p "vdd") with
  | N.Vsource { wave = wa; _ }, N.Vsource { wave = wb; _ } ->
      Alcotest.(check bool) "supply identical" true (wa = wb)
  | _ -> Alcotest.fail "vdd missing"

let test_perturbed_circuit_still_works () =
  let net = V.perturb ~seed:11 (chain_net ()) in
  let sim = Cml_spice.Engine.compile net in
  let x = Cml_spice.Engine.dc_operating_point sim in
  let out =
    match N.find_node net "x3.op" with Some nd -> Cml_spice.Engine.voltage x nd | None -> 0.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "output near rail, got %.3f" out)
    true
    (out > 3.1 && out < 3.5)

(* [perturb] maps devices in place; the reference replaces them by
   name.  Both must draw the same numbers in the same order and build
   the same netlist, on the N = 45 sharing block (the Monte-Carlo
   workload) and on the compiled c432 surrogate, at both sigma sets. *)
let test_perturb_matches_reference () =
  let sharing =
    (Dft.Sharing.build ~multi_emitter:true ~n:45 ()).Dft.Sharing.builder.Cml_cells.Builder.net
  in
  let c432 =
    Cml_cells.Compile.netlist
      (Cml_cells.Compile.compile ~freq:200e6 (L.Bench_circuits.c432_surrogate ()))
  in
  let check name net ~seeds =
    for seed = 0 to seeds - 1 do
      let spec = if seed mod 2 = 0 then V.default_spec else V.tight_spec in
      let p = V.perturb ~spec ~seed net and r = Variation_reference.perturb ~spec ~seed net in
      if N.devices p <> N.devices r || N.node_count p <> N.node_count r then
        Alcotest.failf "%s, seed %d: perturb differs from the reference" name seed
    done
  in
  check "N = 45 sharing block" sharing ~seeds:200;
  check "c432" c432 ~seeds:10

let test_map_devices_keeps_sites () =
  let net = chain_net () in
  let first = fst (List.hd (resistor_values net)) in
  let rename = function
    | N.Resistor r when r.name = first -> N.Resistor { r with name = first ^ "'" }
    | d -> d
  in
  let rewire = function
    | N.Resistor r when r.name = first -> N.Resistor { r with n2 = r.n1 }
    | d -> d
  in
  let message =
    Printf.sprintf "Netlist.map_devices: device %s changed kind, name or terminals" first
  in
  Alcotest.check_raises "a renamed device" (Invalid_argument message) (fun () ->
      ignore (N.map_devices net rename));
  Alcotest.check_raises "a moved terminal" (Invalid_argument message) (fun () ->
      ignore (N.map_devices net rewire));
  let scaled =
    N.map_devices net (function N.Resistor r -> N.Resistor { r with r = 2.0 *. r.r } | d -> d)
  in
  Alcotest.(check bool) "original untouched" true (resistor_values net <> resistor_values scaled);
  Alcotest.(check bool) "values doubled" true
    (List.for_all2
       (fun (_, r0) (_, r1) -> r1 = 2.0 *. r0)
       (resistor_values net) (resistor_values scaled))

(* ------------------------------------------------------------------ *)
(* Monte Carlo *)

let test_montecarlo_no_false_alarms () =
  let r = Dft.Montecarlo.run ~n:6 ~samples:12 ~seed:2 () in
  Alcotest.(check int) "no false alarms" 0 r.Dft.Montecarlo.false_alarms;
  Alcotest.(check int) "no misses" 0 r.Dft.Montecarlo.missed

let test_montecarlo_separation_positive () =
  let r = Dft.Montecarlo.run ~n:6 ~samples:12 ~seed:5 () in
  Alcotest.(check bool)
    (Printf.sprintf "separation %.3f V > 0.1" r.Dft.Montecarlo.separation)
    true
    (r.Dft.Montecarlo.separation > 0.1)

let test_montecarlo_wild_process_degrades () =
  (* a deliberately absurd spread must shrink the margin relative to
     the tight one *)
  let tight = Dft.Montecarlo.run ~spec:V.tight_spec ~n:6 ~samples:10 ~seed:9 () in
  let wild =
    Dft.Montecarlo.run
      ~spec:
        {
          V.resistor_sigma = 0.10;
          capacitor_sigma = 0.2;
          is_sigma = 0.5;
          beta_sigma = 0.4;
        }
      ~n:6 ~samples:10 ~seed:9 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "margin shrinks (%.3f -> %.3f)" tight.Dft.Montecarlo.separation
       wild.Dft.Montecarlo.separation)
    true
    (wild.Dft.Montecarlo.separation < tight.Dft.Montecarlo.separation)

(* ------------------------------------------------------------------ *)
(* Phase sensitivity (section 6.6) *)

let test_v1_masked_by_phase () =
  let r =
    Dft.Experiment.phase_sensitivity ~variant:(Dft.Experiment.V1 Dft.Detector.v1_default)
      ~pipe:2e3 ~freq:100e6 ~tstop:80e-9 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "asymmetric static phases (%.2f vs %.2f)" r.Dft.Experiment.static_false
       r.Dft.Experiment.static_true)
    true
    (r.Dft.Experiment.static_true > r.Dft.Experiment.static_false +. 0.2);
  Alcotest.(check bool) "toggling asserts the fault" true
    (r.Dft.Experiment.toggling > r.Dft.Experiment.static_false)

let test_v2_phase_independent () =
  let r =
    Dft.Experiment.phase_sensitivity
      ~variant:
        (Dft.Experiment.V2 { cfg = Dft.Detector.v2_default; vtest = Dft.Detector.vtest_test proc })
      ~pipe:2e3 ~freq:100e6 ~tstop:80e-9 ()
  in
  let spread =
    Float.max r.Dft.Experiment.static_false r.Dft.Experiment.static_true
    -. Float.min r.Dft.Experiment.static_false r.Dft.Experiment.static_true
  in
  Alcotest.(check bool)
    (Printf.sprintf "double-sided: phases within 50 mV (spread %.0f mV)" (spread *. 1e3))
    true (spread < 0.05)

(* ------------------------------------------------------------------ *)
(* Iddq classification *)

let test_iddq_flags_tail_pipe () =
  (* the tail pipe adds supply current: Iddq-visible; and the paper
     notes CML's steering keeps most other defects Iddq-quiet *)
  let c =
    Cml_defects.Campaign.run
      ~defects:
        [
          Cml_defects.Defect.Pipe { device = "x3.q3"; r = 1e3 };
          Cml_defects.Defect.Open_terminal { device = "x3.q1"; terminal = "b" };
        ]
      ()
  in
  match c.Cml_defects.Campaign.entries with
  | [ { outcome = Cml_defects.Campaign.Measured (_, pipe_flags); _ };
      { outcome = Cml_defects.Campaign.Measured (_, open_flags); _ } ] ->
      Alcotest.(check bool) "pipe raises supply current" true
        pipe_flags.Cml_defects.Campaign.iddq_detectable;
      Alcotest.(check bool) "open does not" true
        (not open_flags.Cml_defects.Campaign.iddq_detectable)
  | _ -> Alcotest.fail "expected two measured entries"

let test_iddq_in_summary () =
  let c = Cml_defects.Campaign.run ~defects:[] () in
  Alcotest.(check bool) "summary has iddq row" true
    (List.mem_assoc "iddq-detectable" (Cml_defects.Campaign.summary c))

(* ------------------------------------------------------------------ *)
(* Directed patterns *)

let test_directed_reaches_full_coverage () =
  let c = L.Bench_circuits.decoded_counter ~bits:3 in
  let initial = L.Sim.initial c L.Value.F in
  let patterns = L.Directed.directed_patterns c ~initial ~seed:7 () in
  match L.Directed.patterns_to_full_coverage c ~initial ~patterns with
  | Some _ -> ()
  | None -> Alcotest.fail "directed generation never covered the circuit"

let test_directed_beats_random_on_decoded () =
  let c = L.Bench_circuits.decoded_counter ~bits:3 in
  let initial = L.Sim.initial c L.Value.F in
  let directed = L.Directed.directed_patterns c ~initial ~seed:7 () in
  let n_directed =
    match L.Directed.patterns_to_full_coverage c ~initial ~patterns:directed with
    | Some n -> n
    | None -> max_int
  in
  let random = L.Patterns.random_patterns ~seed:7 ~width:3 ~count:512 in
  let n_random =
    match L.Directed.patterns_to_full_coverage c ~initial ~patterns:random with
    | Some n -> n
    | None -> max_int
  in
  Alcotest.(check bool)
    (Printf.sprintf "directed %d < random %d" n_directed n_random)
    true (n_directed < n_random)

let test_directed_budget_respected () =
  let c = L.Bench_circuits.counter ~bits:6 in
  let patterns =
    L.Directed.directed_patterns c ~initial:(L.Sim.initial c L.Value.F) ~budget:10 ~seed:1 ()
  in
  Alcotest.(check bool) "at most 10" true (List.length patterns <= 10)

let test_directed_deterministic () =
  let c = L.Bench_circuits.traffic_fsm () in
  let initial = L.Sim.initial c L.Value.F in
  let a = L.Directed.directed_patterns c ~initial ~seed:4 () in
  let b = L.Directed.directed_patterns c ~initial ~seed:4 () in
  Alcotest.(check bool) "same seed same patterns" true (a = b)

(* ------------------------------------------------------------------ *)
(* Adder and DFT insertion *)

let build_adder ?(bits = 3) a_val b_val cin_val =
  let b = Cml_cells.Builder.create () in
  let operand name v =
    Array.init bits (fun k ->
        Cml_cells.Builder.diff_dc_input b ~name:(Printf.sprintf "%s%d" name k)
          ~value:((v lsr k) land 1 = 1))
  in
  let a = operand "a" a_val and bv = operand "b" b_val in
  let cin = Cml_cells.Builder.diff_dc_input b ~name:"cin" ~value:cin_val in
  let sums, cout = Cml_cells.Adder.ripple_carry b ~name:"add" ~a ~b:bv ~cin in
  (b, sums, cout)

let read_result bits x sums cout =
  let bit (d : Cml_cells.Builder.diff) =
    if
      Cml_spice.Engine.voltage x d.Cml_cells.Builder.p
      -. Cml_spice.Engine.voltage x d.Cml_cells.Builder.n
      > 0.05
    then 1
    else 0
  in
  Array.to_list (Array.mapi (fun k d -> bit d lsl k) sums)
  |> List.fold_left ( + ) (bit cout lsl bits)

let test_adder_vectors () =
  List.iter
    (fun (a, b, cin) ->
      let builder, sums, cout = build_adder a b cin in
      let x =
        Cml_spice.Engine.dc_operating_point
          (Cml_spice.Engine.compile builder.Cml_cells.Builder.net)
      in
      let got = read_result 3 x sums cout in
      let want = a + b + if cin then 1 else 0 in
      if got <> want then Alcotest.failf "%d + %d + %b: got %d" a b cin got)
    [ (0, 0, false); (7, 7, true); (5, 3, false); (2, 6, true) ]

let prop_adder_correct =
  QCheck2.Test.make ~name:"3-bit analog adder computes a + b + cin" ~count:12
    QCheck2.Gen.(triple (int_range 0 7) (int_range 0 7) bool)
    (fun (a, b, cin) ->
      let builder, sums, cout = build_adder a b cin in
      let x =
        Cml_spice.Engine.dc_operating_point
          (Cml_spice.Engine.compile builder.Cml_cells.Builder.net)
      in
      read_result 3 x sums cout = a + b + if cin then 1 else 0)

let test_adder_rejects_bad_widths () =
  let b = Cml_cells.Builder.create () in
  let one = [| Cml_cells.Builder.diff_dc_input b ~name:"a0" ~value:true |] in
  let cin = Cml_cells.Builder.diff_dc_input b ~name:"cin" ~value:false in
  match Cml_cells.Adder.ripple_carry b ~name:"add" ~a:one ~b:[||] ~cin with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_builder_registers_cells () =
  let b = Cml_cells.Builder.create () in
  let input = Cml_cells.Builder.diff_dc_input b ~name:"in" ~value:true in
  let out = Cml_cells.Buffer_cell.add b ~name:"g1" ~input in
  ignore (Cml_cells.Gates.and2 b ~name:"g2" ~a:input ~b:out);
  let cells = Cml_cells.Builder.cells b in
  Alcotest.(check (list string)) "names in order" [ "g1"; "g2" ] (List.map fst cells)

let test_insertion_grouping () =
  let builder, _, _ = build_adder 1 2 false in
  let plan = Cml_dft.Insertion.instrument ~max_share:6 builder in
  let sizes =
    List.map (fun g -> List.length g.Cml_dft.Insertion.members) plan.Cml_dft.Insertion.groups
  in
  (* a 3-bit adder has 15 cells: 6 + 6 + 3 *)
  Alcotest.(check (list int)) "group sizes" [ 6; 6; 3 ] sizes

let test_insertion_screen_and_localize () =
  let builder, _, _ = build_adder 3 4 false in
  let plan = Cml_dft.Insertion.instrument ~max_share:8 builder in
  let net = builder.Cml_cells.Builder.net in
  let clean = Cml_dft.Insertion.screen plan net in
  Alcotest.(check bool) "clean circuit passes everywhere" true
    (List.for_all (fun r -> not r.Cml_dft.Insertion.failed) clean);
  let faulty =
    Cml_defects.Inject.apply net
      (Cml_defects.Defect.Pipe { device = "add.fa1.g.q3"; r = 4e3 })
  in
  let suspects = Cml_dft.Insertion.localize plan faulty in
  Alcotest.(check bool) "faulty cell localized" true (List.mem "add.fa1.g" suspects);
  Alcotest.(check bool) "not everything suspected" true
    (List.length suspects < List.length (Cml_cells.Builder.cells builder))

let test_insertion_overhead_reported () =
  let builder, _, _ = build_adder 1 1 false in
  let plan = Cml_dft.Insertion.instrument builder in
  let ov = Cml_dft.Insertion.device_overhead plan builder.Cml_cells.Builder.net in
  Alcotest.(check bool) (Printf.sprintf "overhead sane (%.2f)" ov) true (ov > 0.0 && ov < 0.5)

let () =
  Alcotest.run "extensions"
    [
      ( "variation",
        [
          Alcotest.test_case "deterministic" `Quick test_perturb_deterministic;
          Alcotest.test_case "seed matters" `Quick test_perturb_seed_matters;
          Alcotest.test_case "original untouched" `Quick test_perturb_leaves_original;
          Alcotest.test_case "magnitude bounded" `Quick test_perturb_magnitude;
          Alcotest.test_case "sources untouched" `Quick test_perturb_sources_untouched;
          Alcotest.test_case "perturbed circuit works" `Quick test_perturbed_circuit_still_works;
          Alcotest.test_case "perturb matches the set_device reference" `Quick
            test_perturb_matches_reference;
          Alcotest.test_case "map_devices keeps every site" `Quick test_map_devices_keeps_sites;
        ] );
      ( "montecarlo",
        [
          Alcotest.test_case "no false alarms" `Slow test_montecarlo_no_false_alarms;
          Alcotest.test_case "separation positive" `Slow test_montecarlo_separation_positive;
          Alcotest.test_case "wild process degrades" `Slow test_montecarlo_wild_process_degrades;
        ] );
      ( "phase-sensitivity",
        [
          Alcotest.test_case "v1 masked by phase" `Slow test_v1_masked_by_phase;
          Alcotest.test_case "v2 phase independent" `Slow test_v2_phase_independent;
        ] );
      ( "iddq",
        [
          Alcotest.test_case "tail pipe flagged" `Slow test_iddq_flags_tail_pipe;
          Alcotest.test_case "summary row" `Quick test_iddq_in_summary;
        ] );
      ( "adder",
        [
          Alcotest.test_case "vectors" `Slow test_adder_vectors;
          Alcotest.test_case "bad widths" `Quick test_adder_rejects_bad_widths;
          QCheck_alcotest.to_alcotest prop_adder_correct;
        ] );
      ( "insertion",
        [
          Alcotest.test_case "cell registry" `Quick test_builder_registers_cells;
          Alcotest.test_case "grouping" `Quick test_insertion_grouping;
          Alcotest.test_case "screen and localize" `Slow test_insertion_screen_and_localize;
          Alcotest.test_case "overhead" `Quick test_insertion_overhead_reported;
        ] );
      ( "directed",
        [
          Alcotest.test_case "full coverage" `Quick test_directed_reaches_full_coverage;
          Alcotest.test_case "beats random on decoded counter" `Quick
            test_directed_beats_random_on_decoded;
          Alcotest.test_case "budget respected" `Quick test_directed_budget_respected;
          Alcotest.test_case "deterministic" `Quick test_directed_deterministic;
        ] );
    ]
