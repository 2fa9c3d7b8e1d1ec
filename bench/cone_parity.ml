(* The cone-parity gate behind `make cone-parity`: every defect site of
   the c432 surrogate's default DUT is simulated twice, once by
   [Campaign.run_design] (which routes it to the DUT's fanout cone) and
   once on the whole faulty netlist, and the two must classify alike.

   Per site it prints both class sets (one when they agree), the worst
   deviation of the DUT and final-output measurements (levels and
   swing), the supply current of both runs and the largest current a
   boundary source on a non-ideal net delivered.  Per path it prints the
   Newton iterations, numeric LU refactorizations and chord steps
   (iterations that reused an older LU factor) its transients took.
   Exits 1 when any site's classes differ. *)

module D = Cml_defects
module C = D.Campaign
module E = Cml_spice.Engine
module T = Cml_spice.Transient

let path = "examples/netlists/c432_surrogate.bench"
let freq = 200e6
let tstop = 5e-9

let now_s () = Cml_telemetry.Clock.ns_to_s (Cml_telemetry.Clock.now_ns ())

let labels = function C.Failed _ -> [ "failed" ] | C.Measured (_, f) -> C.flag_labels f

let worst pairs = List.fold_left (fun acc (a, b) -> Float.max acc (Float.abs (a -. b))) 0.0 pairs

module M = Cml_telemetry.Metrics

(* the solver counters the transients of one path published *)
let solver_line name before after =
  let d = M.diff before after in
  let count k = match List.assoc_opt k d with Some (M.Counter n) -> n | Some _ | None -> 0 in
  Printf.printf "cone-parity: %s: %d Newton iterations, %d numeric refactorizations, %d chord steps\n"
    name (count "solver.newton_iters")
    (count "solver.numeric_refactorizations")
    (count "solver.chord_steps")

let run () =
  let design = Cml_cells.Compile.compile ~freq (Cml_logic.Bench_format.read_file ~path) in
  let dut_name = Cml_cells.Compile.default_dut design in
  let input = design.Cml_cells.Compile.input in
  let dut = Option.get (Cml_cells.Compile.find_cell design dut_name) in
  let final = List.assoc (Cml_cells.Compile.default_output design) design.Cml_cells.Compile.outputs in
  let golden = Cml_cells.Compile.netlist design in
  let defects = D.Sites.enumerate golden ~prefix:dut_name ~pipe_values:[ 1e3; 4e3 ] in
  Printf.printf "cone-parity: %s, %d sites of %s, %g MHz, %g ns, %d jobs\n%!" path
    (List.length defects) dut_name (freq /. 1e6) (tstop *. 1e9)
    (Cml_runtime.Pool.default_jobs ());
  let t0 = now_s () and m0 = M.snapshot () in
  let c = C.run_design ~freq ~tstop ~golden ~input ~dut ~final ~defects () in
  let t1 = now_s () and m1 = M.snapshot () in
  (* the full-netlist runs, warm-started like a campaign variant *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let guide =
    T.run ~breakpoints (E.compile golden) golden (T.config ~tstop ~max_step:10e-12 ())
  in
  let full =
    Cml_runtime.Pool.parallel_list_map
      (fun defect ->
        match D.Inject.apply golden defect with
        | exception (Not_found | Invalid_argument _) -> C.Failed "injection failed"
        | faulty -> (
            match
              C.measure_design ~guide ~breakpoints ~record_every:0 ~input ~dut ~final faulty ~freq
                ~tstop
            with
            | m ->
                C.Measured (m, C.classify ~proc:Cml_cells.Process.default ~reference:c.C.reference m)
            | exception E.No_convergence msg -> C.Failed msg))
      defects
  in
  let t2 = now_s () and m2 = M.snapshot () in
  let differ = ref 0 and fallbacks = ref 0 in
  Printf.printf "%-40s %-8s %10s %10s %9s %9s %9s  %s\n" "site" "path" "dut dV" "final dV"
    "Icone mA" "Ifull mA" "draw mA" "classes";
  List.iter2
    (fun (e, (v : Cml_telemetry.Manifest.variant)) full ->
      let metric k = List.assoc_opt k v.Cml_telemetry.Manifest.v_metrics in
      let path =
        match metric "fallback" with Some 1.0 -> "fallback" | Some _ -> "cone" | None -> "full"
      in
      if path = "fallback" then incr fallbacks;
      let mv v = Printf.sprintf "%.3f" (v *. 1e3) in
      let dut_dv, final_dv, i_cone, i_full =
        match (e.C.outcome, full) with
        | C.Measured (a, _), C.Measured (b, _) ->
            ( Printf.sprintf "%.1f uV"
                (1e6
                *. worst
                     [ (a.C.dut_vlow, b.C.dut_vlow); (a.C.dut_vhigh, b.C.dut_vhigh);
                       (a.C.dut_swing, b.C.dut_swing) ]),
              Printf.sprintf "%.2f mV"
                (1e3
                *. worst
                     [ (a.C.final_vlow, b.C.final_vlow); (a.C.final_vhigh, b.C.final_vhigh);
                       (a.C.final_swing, b.C.final_swing) ]),
              mv a.C.supply_current,
              mv b.C.supply_current )
        | _ -> ("-", "-", "-", "-")
      in
      let cone_labels = labels e.C.outcome and full_labels = labels full in
      let classes =
        if cone_labels = full_labels then String.concat " " cone_labels
        else begin
          incr differ;
          Printf.sprintf "DIFFER cone [%s] full [%s]" (String.concat " " cone_labels)
            (String.concat " " full_labels)
        end
      in
      Printf.printf "%-40s %-8s %10s %10s %9s %9s %9s  %s\n" v.Cml_telemetry.Manifest.v_name path
        dut_dv final_dv i_cone i_full
        (match metric "boundary_draw" with Some a -> mv a | None -> "-")
        classes)
    (List.combine c.C.entries c.C.variants)
    full;
  let n = List.length defects in
  Printf.printf
    "cone-parity: %d/%d identical classes, %d fallbacks; campaign %.1f s, full netlist %.1f s\n"
    (n - !differ) n !fallbacks (t1 -. t0) (t2 -. t1);
  solver_line "campaign (reference + cone variants)" m0 m1;
  solver_line "full netlist (reference + variants)" m1 m2;
  if !differ > 0 then exit 1
