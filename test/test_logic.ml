(* Tests for the gate-level logic library: 3-valued algebra, circuit
   construction, cycle simulation, pattern generators, toggle
   coverage, stuck-at fault simulation and initialization
   convergence. *)

module L = Cml_logic
module V = Cml_logic.Value
module C = Cml_logic.Circuit

(* ------------------------------------------------------------------ *)
(* Value algebra *)

let val_eq = Alcotest.testable (fun fmt v -> Format.pp_print_char fmt (V.to_char v)) V.equal

let test_not_table () =
  Alcotest.check val_eq "not 0" V.T (V.v_not V.F);
  Alcotest.check val_eq "not 1" V.F (V.v_not V.T);
  Alcotest.check val_eq "not x" V.X (V.v_not V.X)

let test_and_table () =
  Alcotest.check val_eq "0 and x" V.F (V.v_and V.F V.X);
  Alcotest.check val_eq "x and 0" V.F (V.v_and V.X V.F);
  Alcotest.check val_eq "1 and 1" V.T (V.v_and V.T V.T);
  Alcotest.check val_eq "1 and x" V.X (V.v_and V.T V.X)

let test_or_table () =
  Alcotest.check val_eq "1 or x" V.T (V.v_or V.T V.X);
  Alcotest.check val_eq "0 or 0" V.F (V.v_or V.F V.F);
  Alcotest.check val_eq "0 or x" V.X (V.v_or V.F V.X)

let test_xor_table () =
  Alcotest.check val_eq "1 xor 0" V.T (V.v_xor V.T V.F);
  Alcotest.check val_eq "1 xor 1" V.F (V.v_xor V.T V.T);
  Alcotest.check val_eq "x xor 1" V.X (V.v_xor V.X V.T)

let test_mux_table () =
  Alcotest.check val_eq "sel 1 picks a" V.T (V.v_mux ~sel:V.T ~a:V.T ~b:V.F);
  Alcotest.check val_eq "sel 0 picks b" V.F (V.v_mux ~sel:V.F ~a:V.T ~b:V.F);
  Alcotest.check val_eq "sel x, agree" V.T (V.v_mux ~sel:V.X ~a:V.T ~b:V.T);
  Alcotest.check val_eq "sel x, disagree" V.X (V.v_mux ~sel:V.X ~a:V.T ~b:V.F)

let binary = QCheck2.Gen.map V.of_bool QCheck2.Gen.bool

let prop_demorgan =
  QCheck2.Test.make ~name:"De Morgan holds on binary values" ~count:100
    (QCheck2.Gen.pair binary binary) (fun (a, b) ->
      V.equal (V.v_not (V.v_and a b)) (V.v_or (V.v_not a) (V.v_not b)))

let prop_xor_via_andor =
  QCheck2.Test.make ~name:"xor = (a or b) and not (a and b) on binary" ~count:100
    (QCheck2.Gen.pair binary binary) (fun (a, b) ->
      V.equal (V.v_xor a b) (V.v_and (V.v_or a b) (V.v_not (V.v_and a b))))

let three_valued = QCheck2.Gen.oneofl [ V.F; V.T; V.X ]

let prop_x_monotone =
  (* replacing an input by X can only keep the output or make it X *)
  QCheck2.Test.make ~name:"X-pessimism of and/or/xor" ~count:200
    (QCheck2.Gen.pair three_valued three_valued) (fun (a, b) ->
      let implies p q = (not p) || q in
      let check op =
        let out = op a b in
        let out_xa = op V.X b and out_xb = op a V.X in
        implies (not (V.equal out out_xa)) (V.equal out_xa V.X)
        && implies (not (V.equal out out_xb)) (V.equal out_xb V.X)
      in
      check V.v_and && check V.v_or && check V.v_xor)

(* ------------------------------------------------------------------ *)
(* Circuit construction *)

let test_combinational_cycle_rejected () =
  let b = C.create () in
  let i = C.input b "i" in
  let ff = C.dff b in
  (* a NOT feeding itself through combinational gates only *)
  ignore i;
  ignore ff;
  let g1 = C.buf b 0 in
  ignore g1;
  (* build a real cycle: and2 whose input is itself is impossible with
     this API (ids only reference earlier gates), so check via dff
     misuse instead: connect_dff on a non-dff *)
  match C.connect_dff b ~ff:g1 ~d:0 with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_unconnected_dff_rejected () =
  let b = C.create () in
  ignore (C.dff b);
  match C.finalize b with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* finalize diagnostics: the error messages must name the offending
   nets so a user can actually find them *)

let expect_invalid_arg expected f =
  match f () with
  | _ -> Alcotest.failf "expected Invalid_argument %S" expected
  | exception Invalid_argument msg -> Alcotest.(check string) "message" expected msg

let test_finalize_cycle_names_path () =
  let b = C.create () in
  let _a = C.input b "a" in
  (* net 1 reads net 2, which reads net 1: a two-gate loop *)
  let g1 = C.buf b 2 in
  let _g2 = C.buf b g1 in
  expect_invalid_arg
    "finalize: combinational cycle: net 1 (buf) -> net 2 (buf) -> net 1 (buf) (break it \
     with a flip-flop)"
    (fun () -> C.finalize b)

let test_finalize_lists_all_unconnected_dffs () =
  let b = C.create () in
  ignore (C.dff b);
  ignore (C.dff b);
  let connected = C.dff b in
  let i = C.input b "i" in
  C.connect_dff b ~ff:connected ~d:i;
  expect_invalid_arg
    "finalize: unconnected flip-flop(s) at net 0, net 1 (wire them with connect_dff)"
    (fun () -> C.finalize b)

let test_finalize_names_dangling_fanin () =
  let b = C.create () in
  let _a = C.input b "a" in
  let _g = C.buf b 7 in
  expect_invalid_arg "finalize: net 1 (buf) has dangling fanin 7 (valid nets are 0..1)"
    (fun () -> C.finalize b)

let test_counter_counts () =
  let c = L.Bench_circuits.counter ~bits:3 in
  let state = ref (L.Sim.initial c V.F) in
  let en = [| V.T |] in
  for _ = 1 to 5 do
    let s, _ = L.Sim.step c !state ~inputs:en in
    state := s
  done;
  (* after 5 enabled cycles the counter holds 5 = 101 *)
  let _, values = L.Sim.step c !state ~inputs:[| V.F |] in
  let outs = L.Sim.outputs_of c values in
  Alcotest.check val_eq "q0" V.T (List.assoc "q0" outs);
  Alcotest.check val_eq "q1" V.F (List.assoc "q1" outs);
  Alcotest.check val_eq "q2" V.T (List.assoc "q2" outs)

let test_counter_disabled_holds () =
  let c = L.Bench_circuits.counter ~bits:3 in
  let s1, _ = L.Sim.step c (L.Sim.initial c V.F) ~inputs:[| V.T |] in
  let s2, _ = L.Sim.step c s1 ~inputs:[| V.F |] in
  Alcotest.(check bool) "held" true (s1 = s2)

let test_shift_register_moves () =
  let c = L.Bench_circuits.shift_register ~bits:4 in
  let state = ref (L.Sim.initial c V.F) in
  let feed v =
    let s, _ = L.Sim.step c !state ~inputs:[| v |] in
    state := s
  in
  feed V.T;
  feed V.F;
  feed V.T;
  feed V.F;
  (* q0 is the newest bit *)
  Alcotest.(check bool) "pattern 0101" true (!state = [| V.F; V.T; V.F; V.T |])

let test_traffic_fsm_cycles () =
  let c = L.Bench_circuits.traffic_fsm () in
  let state = ref (L.Sim.initial c V.F) in
  let states_seen = ref [] in
  for _ = 1 to 6 do
    let s, _ = L.Sim.step c !state ~inputs:[| V.F |] in
    states_seen := s :: !states_seen;
    state := s
  done;
  (* period-3 cycle: state at cycle k equals state at cycle k+3 *)
  match !states_seen with
  | s6 :: _ :: _ :: s3 :: _ -> Alcotest.(check bool) "period 3" true (s6 = s3)
  | _ -> Alcotest.fail "unexpected"

let test_eval_x_propagates () =
  let c = L.Bench_circuits.counter ~bits:2 in
  let values = L.Sim.eval c (L.Sim.initial c V.X) ~inputs:[| V.T |] in
  Alcotest.(check bool) "some X present" true (Array.exists (fun v -> v = V.X) values)

(* Every gate evaluated in topological order, each primary input
   looked up by name: what [Sim.eval] computed before it assigned the
   inputs by position.  For combinational circuits only. *)
let eval_by_name (c : C.t) ~inputs =
  let named = List.mapi (fun i (name, _) -> (name, inputs.(i))) c.C.inputs in
  let values = Array.make (Array.length c.C.gates) V.X in
  Array.iter
    (fun gid ->
      values.(gid) <-
        (match c.C.gates.(gid) with
        | C.Input name -> List.assoc name named
        | C.And (a, b) -> V.v_and values.(a) values.(b)
        | C.Or (a, b) -> V.v_or values.(a) values.(b)
        | C.Xor (a, b) -> V.v_xor values.(a) values.(b)
        | C.Not a -> V.v_not values.(a)
        | C.Buf a -> values.(a)
        | C.Mux { sel; a; b } -> V.v_mux ~sel:values.(sel) ~a:values.(a) ~b:values.(b)
        | C.Dff _ -> Alcotest.fail "unexpected flip-flop"))
    c.C.order;
  values

let test_eval_c432_by_position () =
  let c = L.Bench_circuits.c432_surrogate () in
  let st = Random.State.make [| 432 |] in
  for k = 1 to 20 do
    let inputs =
      Array.of_list
        (List.map (fun _ -> [| V.F; V.T; V.X |].(Random.State.int st 3)) c.C.inputs)
    in
    Alcotest.(check (array val_eq))
      (Printf.sprintf "vector %d" k)
      (eval_by_name c ~inputs)
      (L.Sim.eval c [||] ~inputs)
  done

(* ------------------------------------------------------------------ *)
(* Patterns *)

let test_lfsr_rejects_zero_seed () =
  match L.Patterns.lfsr_create ~seed:0 () with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_lfsr_deterministic () =
  let a = L.Patterns.lfsr_create ~seed:42 () in
  let b = L.Patterns.lfsr_create ~seed:42 () in
  let pa = L.Patterns.lfsr_patterns a ~width:8 ~count:10 in
  let pb = L.Patterns.lfsr_patterns b ~width:8 ~count:10 in
  Alcotest.(check bool) "same streams" true (pa = pb)

let test_lfsr_balanced () =
  let l = L.Patterns.lfsr_create () in
  let ones = ref 0 in
  for _ = 1 to 4096 do
    if L.Patterns.lfsr_next_bit l then incr ones
  done;
  Alcotest.(check bool)
    (Printf.sprintf "balanced (%d/4096 ones)" !ones)
    true
    (!ones > 1800 && !ones < 2300)

let test_walking_ones () =
  let ps = L.Patterns.walking_ones ~width:3 in
  Alcotest.(check int) "3 patterns" 3 (List.length ps);
  Alcotest.(check bool) "each has one T" true
    (List.for_all
       (fun p -> Array.fold_left (fun n v -> if v = V.T then n + 1 else n) 0 p = 1)
       ps)

let test_exhaustive () =
  Alcotest.(check int) "2^4" 16 (List.length (L.Patterns.exhaustive ~width:4))

(* ------------------------------------------------------------------ *)
(* Coverage *)

let test_toggle_coverage_reaches_one () =
  let c = L.Bench_circuits.counter ~bits:3 in
  (* mostly counting, with occasional disabled cycles so the enable
     net itself toggles *)
  let patterns = List.init 40 (fun k -> [| V.of_bool (k mod 8 <> 0) |]) in
  let cov = L.Coverage.coverage_after c ~initial:(L.Sim.initial c V.F) ~patterns in
  Alcotest.(check bool) (Printf.sprintf "full toggle coverage, got %.2f" cov) true (cov > 0.99)

let test_toggle_coverage_partial_when_disabled () =
  let c = L.Bench_circuits.counter ~bits:3 in
  let patterns = List.init 10 (fun _ -> [| V.F |]) in
  let cov = L.Coverage.coverage_after c ~initial:(L.Sim.initial c V.F) ~patterns in
  Alcotest.(check bool) (Printf.sprintf "low coverage, got %.2f" cov) true (cov < 0.5)

let test_coverage_curve_monotone () =
  let c = L.Bench_circuits.shift_register ~bits:6 in
  let patterns = L.Patterns.random_patterns ~seed:7 ~width:1 ~count:30 in
  let curve = L.Coverage.curve c ~initial:(L.Sim.initial c V.F) ~patterns in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b +. 1e-9 && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (monotone curve)

(* ------------------------------------------------------------------ *)
(* Fault simulation *)

let test_faultsim_counts () =
  let c = L.Bench_circuits.counter ~bits:2 in
  Alcotest.(check int) "2 faults per net" (2 * C.num_nets c)
    (List.length (L.Faultsim.all_faults c))

let test_faultsim_detects_obvious () =
  let c = L.Bench_circuits.shift_register ~bits:2 in
  (* stuck-at-1 on the input net is caught by shifting zeros *)
  let input_net = List.assoc "din" c.C.inputs in
  let patterns = List.init 5 (fun _ -> [| V.F |]) in
  Alcotest.(check bool) "detected" true
    (L.Faultsim.detects c ~initial:(L.Sim.initial c V.F) ~patterns
       { L.Faultsim.net = input_net; stuck = true })

let test_faultsim_misses_unexercised () =
  let c = L.Bench_circuits.shift_register ~bits:2 in
  let input_net = List.assoc "din" c.C.inputs in
  (* shifting ones can never expose stuck-at-1 on the input *)
  let patterns = List.init 5 (fun _ -> [| V.T |]) in
  Alcotest.(check bool) "missed" false
    (L.Faultsim.detects c ~initial:(L.Sim.initial c V.F) ~patterns
       { L.Faultsim.net = input_net; stuck = true })

let test_faultsim_coverage_grows_with_patterns () =
  let c = L.Bench_circuits.counter ~bits:3 in
  let short = List.init 2 (fun _ -> [| V.T |]) in
  let long = List.init 30 (fun _ -> [| V.T |]) in
  let cov_short, _, _ = L.Faultsim.coverage c ~initial:(L.Sim.initial c V.F) ~patterns:short in
  let cov_long, _, _ = L.Faultsim.coverage c ~initial:(L.Sim.initial c V.F) ~patterns:long in
  Alcotest.(check bool)
    (Printf.sprintf "coverage grows (%.2f -> %.2f)" cov_short cov_long)
    true
    (cov_long >= cov_short && cov_long > 0.5)

(* ------------------------------------------------------------------ *)
(* Initialization convergence (reference [13]) *)

let test_traffic_converges_from_any_state () =
  let c = L.Bench_circuits.traffic_fsm () in
  (* one synchronizing pulse, then free-running *)
  let patterns = List.init 12 (fun k -> [| V.of_bool (k = 0) |]) in
  let r = L.Init_convergence.analyse c ~patterns ~trials:8 ~seed:11 in
  Alcotest.(check bool) "converged" true r.L.Init_convergence.converged;
  match r.L.Init_convergence.convergence_cycle with
  | Some k -> Alcotest.(check bool) (Printf.sprintf "within 6 cycles, got %d" k) true (k <= 6)
  | None -> Alcotest.fail "no convergence cycle"

let test_shift_register_self_initialises () =
  let c = L.Bench_circuits.shift_register ~bits:4 in
  let patterns = L.Patterns.random_patterns ~seed:3 ~width:1 ~count:8 in
  Alcotest.(check bool) "binary after 8 shifts" true
    (L.Init_convergence.self_initialising c ~patterns)

let test_counter_does_not_converge_across_states () =
  (* a free-running counter never forgets its initial value *)
  let c = L.Bench_circuits.counter ~bits:3 in
  let patterns = List.init 5 (fun _ -> [| V.T |]) in
  let r = L.Init_convergence.analyse c ~patterns ~trials:6 ~seed:5 in
  Alcotest.(check bool) "not converged" false r.L.Init_convergence.converged

(* ------------------------------------------------------------------ *)
(* .bench format *)

let test_bench_s27_shape () =
  let c = L.Bench_format.s27 () in
  Alcotest.(check int) "inputs" 4 (List.length c.C.inputs);
  Alcotest.(check int) "outputs" 1 (List.length c.C.outputs);
  Alcotest.(check int) "flip-flops" 3 (Array.length c.C.dffs)

let test_bench_s27_simulates () =
  let c = L.Bench_format.s27 () in
  let initial = L.Sim.initial c V.F in
  let patterns = L.Patterns.lfsr_patterns (L.Patterns.lfsr_create ()) ~width:4 ~count:128 in
  let cov = L.Coverage.coverage_after c ~initial ~patterns in
  Alcotest.(check bool) (Printf.sprintf "high toggle coverage (%.2f)" cov) true (cov > 0.9)

let test_bench_forward_references () =
  (* G2 uses G3, defined later *)
  let c = L.Bench_format.of_string "INPUT(a)\nOUTPUT(g2)\ng2 = NOT(g3)\ng3 = BUF(a)\n" in
  let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs:[| V.T |] in
  Alcotest.check val_eq "not(buf(1)) = 0" V.F (List.assoc "g2" (L.Sim.outputs_of c values))

let test_bench_nary_gates () =
  let c =
    L.Bench_format.of_string "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a, b, c)\n"
  in
  let check inputs expect =
    let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs in
    Alcotest.check val_eq "and3" expect (List.assoc "y" (L.Sim.outputs_of c values))
  in
  check [| V.T; V.T; V.T |] V.T;
  check [| V.T; V.F; V.T |] V.F

let test_bench_nand_nor () =
  let c =
    L.Bench_format.of_string
      "INPUT(a)\nINPUT(b)\nOUTPUT(x)\nOUTPUT(y)\nx = NAND(a, b)\ny = NOR(a, b)\n"
  in
  let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs:[| V.T; V.F |] in
  Alcotest.check val_eq "nand(1,0)" V.T (List.assoc "x" (L.Sim.outputs_of c values));
  Alcotest.check val_eq "nor(1,0)" V.F (List.assoc "y" (L.Sim.outputs_of c values))

let test_bench_rejects_cycle () =
  match L.Bench_format.of_string "INPUT(a)\nOUTPUT(x)\nx = NOT(y)\ny = NOT(x)\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception L.Bench_format.Parse_error _ -> ()

let test_bench_rejects_undefined () =
  match L.Bench_format.of_string "INPUT(a)\nOUTPUT(x)\nx = NOT(zz)\n" with
  | _ -> Alcotest.fail "expected Parse_error"
  | exception L.Bench_format.Parse_error _ -> ()

(* parser error paths: the reported line number must point at the
   offending statement *)

let expect_parse_error ~line ~needle text =
  match L.Bench_format.of_string text with
  | _ -> Alcotest.failf "expected Parse_error mentioning %S" needle
  | exception L.Bench_format.Parse_error { line = l; message } ->
      Alcotest.(check int) "line" line l;
      let contains s sub =
        let ls = String.length s and lsub = String.length sub in
        let rec scan i = i + lsub <= ls && (String.sub s i lsub = sub || scan (i + 1)) in
        scan 0
      in
      if not (contains message needle) then
        Alcotest.failf "message %S does not mention %S" message needle

let test_bench_malformed_line () =
  expect_parse_error ~line:2 ~needle:"missing ')'" "INPUT(a)\nx = AND(a\nOUTPUT(x)\n"

let test_bench_unknown_gate () =
  expect_parse_error ~line:3 ~needle:{|unknown gate type "FOO"|}
    "INPUT(a)\nOUTPUT(x)\nx = FOO(a)\n"

let test_bench_wrong_arity () =
  expect_parse_error ~line:2 ~needle:"wrong arity for NOT" "INPUT(a)\nx = NOT(a, a)\nOUTPUT(x)\n"

let test_bench_duplicate_output () =
  expect_parse_error ~line:4 ~needle:{|duplicate output declaration "b" (first on line 3)|}
    "INPUT(a)\nb = NOT(a)\nOUTPUT(b)\nOUTPUT(b)\n"

let test_bench_duplicate_definition () =
  expect_parse_error ~line:3 ~needle:{|duplicate definition of "b"|}
    "INPUT(a)\nb = NOT(a)\nb = BUF(a)\nOUTPUT(b)\n"

let test_bench_cycle_line_number () =
  expect_parse_error ~line:3 ~needle:{|combinational cycle through "x"|}
    "INPUT(a)\nOUTPUT(x)\nx = BUF(x)\n"

let test_bench_comment_headers () =
  (* ISCAS-style header comments, trailing comments and blank lines *)
  let c =
    L.Bench_format.of_string
      "# c17 style header\n# total gates: 1\n\nINPUT(a)  # first input\nINPUT(b)\n\nOUTPUT(y)\ny = AND(a, b)\n\n"
  in
  let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs:[| V.T; V.T |] in
  Alcotest.check val_eq "and(1,1)" V.T (List.assoc "y" (L.Sim.outputs_of c values))

let test_bench_multiline_args () =
  (* an argument list wrapped over several physical lines, with
     comments and blank continuation lines inside the statement *)
  let c =
    L.Bench_format.of_string
      "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\ny = AND(a,  # wraps\n        b,\n\n        c)\n"
  in
  let check inputs expect =
    let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs in
    Alcotest.check val_eq "and3" expect (List.assoc "y" (L.Sim.outputs_of c values))
  in
  check [| V.T; V.T; V.T |] V.T;
  check [| V.T; V.T; V.F |] V.F

let test_bench_multiline_error_line () =
  (* an error inside a wrapped statement reports the line it started on *)
  expect_parse_error ~line:2 ~needle:{|unknown gate type "FOO"|}
    "INPUT(a)\nx = FOO(a,\n        a)\nOUTPUT(x)\n"

let test_bench_unclosed_at_eof () =
  expect_parse_error ~line:3 ~needle:"missing ')'" "INPUT(a)\nOUTPUT(x)\nx = AND(a,\n        a\n"

let test_bench_undeclared_fanin_line () =
  (* an undeclared fanin names the signal and the referencing line *)
  expect_parse_error ~line:3 ~needle:{|undefined signal "zz"|} "INPUT(a)\nOUTPUT(x)\nx = NOT(zz)\n"

let test_net_names_contract () =
  let c = L.Bench_format.s27 () in
  let names = L.Circuit.net_names c in
  (* unique *)
  let tbl = Hashtbl.create 32 in
  Array.iter
    (fun n ->
      if Hashtbl.mem tbl n then Alcotest.failf "duplicate net name %S" n;
      Hashtbl.replace tbl n ())
    names;
  (* declared names land on their nets *)
  List.iter
    (fun (nm, id) -> Alcotest.(check string) "output name" nm names.(id))
    c.L.Circuit.outputs;
  List.iter
    (fun (nm, id) -> Alcotest.(check string) "input name" nm names.(id))
    c.L.Circuit.inputs

let test_net_names_collision () =
  (* an output declared "n1" on a net other than net 1: the positional
     name of net 1 must step aside *)
  let b = L.Circuit.create () in
  let a = L.Circuit.input b "a" in
  let x = L.Circuit.not1 b a in
  let y = L.Circuit.buf b x in
  L.Circuit.output b "n1" y;
  let c = L.Circuit.finalize b in
  let names = L.Circuit.net_names c in
  Alcotest.(check string) "input keeps its name" "a" names.(a);
  Alcotest.(check string) "declared output wins" "n1" names.(y);
  Alcotest.(check string) "displaced positional name" "n1_" names.(x)

let test_bench_roundtrip_behaviour () =
  let c = L.Bench_format.s27 () in
  let c2 = L.Bench_format.of_string (L.Bench_format.to_string c) in
  (* same responses to the same pattern sequence *)
  let patterns = L.Patterns.random_patterns ~seed:5 ~width:4 ~count:40 in
  let outputs circ =
    let _, frames = L.Sim.run circ (L.Sim.initial circ V.F) ~patterns in
    List.map (fun values -> List.map snd (L.Sim.outputs_of circ values)) frames
  in
  Alcotest.(check bool) "same output streams" true (outputs c = outputs c2)

let test_multiplier_vectors () =
  let c = L.Bench_circuits.multiplier ~bits:3 in
  let eval a b =
    let inputs =
      Array.append
        (Array.init 3 (fun k -> V.of_bool ((a lsr k) land 1 = 1)))
        (Array.init 3 (fun k -> V.of_bool ((b lsr k) land 1 = 1)))
    in
    let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs in
    List.fold_left
      (fun acc (name, v) ->
        match (v, int_of_string_opt (String.sub name 1 (String.length name - 1))) with
        | V.T, Some k -> acc + (1 lsl k)
        | (V.F | V.X), _ | V.T, None -> acc)
      0
      (L.Sim.outputs_of c values)
  in
  List.iter
    (fun (a, b) ->
      let got = eval a b in
      if got <> a * b then Alcotest.failf "%d * %d: got %d" a b got)
    [ (0, 0); (7, 7); (5, 3); (6, 4); (1, 7) ]

let prop_multiplier_correct =
  QCheck2.Test.make ~name:"3-bit array multiplier computes a*b" ~count:64
    QCheck2.Gen.(pair (int_range 0 7) (int_range 0 7))
    (fun (a, b) ->
      let c = L.Bench_circuits.multiplier ~bits:3 in
      let inputs =
        Array.append
          (Array.init 3 (fun k -> V.of_bool ((a lsr k) land 1 = 1)))
          (Array.init 3 (fun k -> V.of_bool ((b lsr k) land 1 = 1)))
      in
      let values = L.Sim.eval c (L.Sim.initial c V.F) ~inputs in
      let got =
        List.fold_left
          (fun acc (name, v) ->
            match (v, int_of_string_opt (String.sub name 1 (String.length name - 1))) with
            | V.T, Some k -> acc + (1 lsl k)
            | (V.F | V.X), _ | V.T, None -> acc)
          0
          (L.Sim.outputs_of c values)
      in
      got = a * b)

(* ------------------------------------------------------------------ *)
(* Timing *)

let test_timing_depth_counter () =
  (* counter bit k's toggle goes through one xor after the carry
     chain of k ands *)
  let c = L.Bench_circuits.counter ~bits:4 in
  Alcotest.(check int) "depth = carries + xor" 4 (L.Timing.depth c)

let test_timing_zero_cost_nets () =
  let c = L.Bench_circuits.shift_register ~bits:8 in
  (* pure shifting: no combinational logic at all *)
  Alcotest.(check int) "depth 0" 0 (L.Timing.depth c)

let test_timing_critical_path_consistent () =
  let c = L.Bench_format.s27 () in
  let path = L.Timing.critical_path c in
  Alcotest.(check bool) "path non-empty" true (List.length path > 1);
  Alcotest.(check bool) "path length related to depth" true
    (List.length path >= L.Timing.depth c)

let test_timing_clock_floor () =
  let c = L.Bench_format.s27 () in
  let period = L.Timing.min_clock_period c ~gate_delay:54e-12 in
  Alcotest.(check (float 1e-15)) "depth * delay"
    (float_of_int (L.Timing.depth c) *. 54e-12)
    period

(* ------------------------------------------------------------------ *)
(* VCD *)

let test_vcd_structure () =
  let c = L.Bench_circuits.counter ~bits:2 in
  let _, frames = L.Sim.run c (L.Sim.initial c V.F) ~patterns:(List.init 4 (fun _ -> [| V.T |])) in
  let vcd = L.Vcd.to_string c ~frames in
  List.iter
    (fun needle ->
      let found =
        let ln = String.length needle and lv = String.length vcd in
        let rec scan i = i + ln <= lv && (String.sub vcd i ln = needle || scan (i + 1)) in
        scan 0
      in
      if not found then Alcotest.failf "VCD missing %S" needle)
    [ "$timescale"; "$enddefinitions"; "$dumpvars"; "#0"; "#3"; "$var wire 1" ]

let test_vcd_emits_changes_only () =
  (* a held counter changes nothing after the first frame *)
  let c = L.Bench_circuits.counter ~bits:2 in
  let _, frames = L.Sim.run c (L.Sim.initial c V.F) ~patterns:(List.init 3 (fun _ -> [| V.F |])) in
  let vcd = L.Vcd.to_string c ~frames in
  let lines = String.split_on_char '\n' vcd in
  (* after #1 and #2 markers there should be no value lines (no change) *)
  let rec tail_after marker = function
    | [] -> []
    | l :: rest -> if l = marker then rest else tail_after marker rest
  in
  (match tail_after "#1" lines with
  | next :: _ -> Alcotest.(check string) "nothing changes after #1" "#2" next
  | [] -> Alcotest.fail "truncated vcd")

let () =
  let qc = List.map (fun t -> QCheck_alcotest.to_alcotest t) in
  Alcotest.run "logic"
    [
      ( "values",
        [
          Alcotest.test_case "not" `Quick test_not_table;
          Alcotest.test_case "and" `Quick test_and_table;
          Alcotest.test_case "or" `Quick test_or_table;
          Alcotest.test_case "xor" `Quick test_xor_table;
          Alcotest.test_case "mux" `Quick test_mux_table;
        ] );
      ( "circuit",
        [
          Alcotest.test_case "connect_dff misuse" `Quick test_combinational_cycle_rejected;
          Alcotest.test_case "unconnected dff" `Quick test_unconnected_dff_rejected;
          Alcotest.test_case "cycle message names path" `Quick test_finalize_cycle_names_path;
          Alcotest.test_case "unconnected dffs all listed" `Quick
            test_finalize_lists_all_unconnected_dffs;
          Alcotest.test_case "dangling fanin named" `Quick test_finalize_names_dangling_fanin;
          Alcotest.test_case "counter counts" `Quick test_counter_counts;
          Alcotest.test_case "counter holds" `Quick test_counter_disabled_holds;
          Alcotest.test_case "shift register" `Quick test_shift_register_moves;
          Alcotest.test_case "traffic fsm period" `Quick test_traffic_fsm_cycles;
          Alcotest.test_case "x propagation" `Quick test_eval_x_propagates;
          Alcotest.test_case "c432 inputs by position" `Quick test_eval_c432_by_position;
          Alcotest.test_case "multiplier vectors" `Quick test_multiplier_vectors;
          QCheck_alcotest.to_alcotest prop_multiplier_correct;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "lfsr zero seed" `Quick test_lfsr_rejects_zero_seed;
          Alcotest.test_case "lfsr deterministic" `Quick test_lfsr_deterministic;
          Alcotest.test_case "lfsr balanced" `Quick test_lfsr_balanced;
          Alcotest.test_case "walking ones" `Quick test_walking_ones;
          Alcotest.test_case "exhaustive" `Quick test_exhaustive;
        ] );
      ( "coverage",
        [
          Alcotest.test_case "full coverage" `Quick test_toggle_coverage_reaches_one;
          Alcotest.test_case "partial when idle" `Quick test_toggle_coverage_partial_when_disabled;
          Alcotest.test_case "curve monotone" `Quick test_coverage_curve_monotone;
        ] );
      ( "faultsim",
        [
          Alcotest.test_case "fault list size" `Quick test_faultsim_counts;
          Alcotest.test_case "detects obvious" `Quick test_faultsim_detects_obvious;
          Alcotest.test_case "misses unexercised" `Quick test_faultsim_misses_unexercised;
          Alcotest.test_case "coverage grows" `Quick test_faultsim_coverage_grows_with_patterns;
        ] );
      ( "initialization",
        [
          Alcotest.test_case "traffic converges" `Quick test_traffic_converges_from_any_state;
          Alcotest.test_case "shift self-initialises" `Quick
            test_shift_register_self_initialises;
          Alcotest.test_case "counter retains state" `Quick
            test_counter_does_not_converge_across_states;
        ] );
      ( "timing",
        [
          Alcotest.test_case "counter depth" `Quick test_timing_depth_counter;
          Alcotest.test_case "shift register depth 0" `Quick test_timing_zero_cost_nets;
          Alcotest.test_case "critical path" `Quick test_timing_critical_path_consistent;
          Alcotest.test_case "clock floor" `Quick test_timing_clock_floor;
        ] );
      ( "vcd",
        [
          Alcotest.test_case "structure" `Quick test_vcd_structure;
          Alcotest.test_case "changes only" `Quick test_vcd_emits_changes_only;
        ] );
      ( "bench-format",
        [
          Alcotest.test_case "s27 shape" `Quick test_bench_s27_shape;
          Alcotest.test_case "s27 simulates" `Quick test_bench_s27_simulates;
          Alcotest.test_case "forward references" `Quick test_bench_forward_references;
          Alcotest.test_case "n-ary gates" `Quick test_bench_nary_gates;
          Alcotest.test_case "nand/nor" `Quick test_bench_nand_nor;
          Alcotest.test_case "combinational cycle" `Quick test_bench_rejects_cycle;
          Alcotest.test_case "undefined signal" `Quick test_bench_rejects_undefined;
          Alcotest.test_case "malformed line" `Quick test_bench_malformed_line;
          Alcotest.test_case "unknown gate type" `Quick test_bench_unknown_gate;
          Alcotest.test_case "wrong arity" `Quick test_bench_wrong_arity;
          Alcotest.test_case "duplicate output" `Quick test_bench_duplicate_output;
          Alcotest.test_case "duplicate definition" `Quick test_bench_duplicate_definition;
          Alcotest.test_case "cycle line number" `Quick test_bench_cycle_line_number;
          Alcotest.test_case "comment headers" `Quick test_bench_comment_headers;
          Alcotest.test_case "multi-line args" `Quick test_bench_multiline_args;
          Alcotest.test_case "multi-line error line" `Quick test_bench_multiline_error_line;
          Alcotest.test_case "unclosed at EOF" `Quick test_bench_unclosed_at_eof;
          Alcotest.test_case "undeclared fanin line" `Quick test_bench_undeclared_fanin_line;
          Alcotest.test_case "net names contract" `Quick test_net_names_contract;
          Alcotest.test_case "net names collision" `Quick test_net_names_collision;
          Alcotest.test_case "round-trip behaviour" `Quick test_bench_roundtrip_behaviour;
        ] );
      ("value-properties", qc [ prop_demorgan; prop_xor_via_andor; prop_x_monotone ]);
    ]
