(* The cone-parity gate behind `make cone-parity`: every defect site of
   the c432 surrogate's default DUT is simulated twice, once by
   [Campaign.run_design] (which routes it to the DUT's fanout cone and
   classifies it against the cut reference) and once on the whole
   faulty netlist, classified against a full-netlist reference of its
   own, and the two must classify alike.  A variant measured on its
   cone's cut at the healing depth must also read the full netlist's
   final output within the cut tolerance ([Campaign.cut_epsilon]).

   It first prints how far the campaign's cut reference (a transient
   of the toggling input's fanout cone on top of the full DC point)
   lies from the full-netlist reference: the worst deviation at every
   boundary net of the DUT's cone, at the DUT and final-output probes
   (levels, swing, delay) and of the supply current.  Per site it
   prints the path the campaign measured it on (cut, cone or fallback
   to the full netlist), both class sets (one when they agree), the
   worst deviation of the DUT and final-output measurements (levels
   and swing), the supply current of both runs, the largest current a
   boundary source on a non-ideal net delivered and the worst
   deviation of a cut net from its reference (on an aborted cut, the
   one that aborted it).  Per path it prints the Newton iterations,
   numeric LU refactorizations and chord steps (iterations that reused
   an older LU factor) its transients took.  Exits 1 when any site's
   classes differ or a cut site's final output strays beyond the cut
   tolerance. *)

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

(* How far the campaign's reference lies from the full-netlist one:
   every boundary net of the DUT's cone (the cut run, or the DC value
   it holds, interpolated at the full run's steps), then the probe
   measurements and the supply. *)
let reference_deviation ~golden ~dut_name ~input ~dut ~final ~guide ~full cut =
  let r = C.design_reference ~input ~dut ~final golden ~freq ~tstop in
  let traj = D.Cone.full_guide r.C.trajectory in
  Printf.printf "cone-parity: campaign reference on %s\n"
    (match r.C.active_cone with
    | Some k -> Printf.sprintf "the active cone, %d of %d unknowns" k (E.unknown_count guide.T.sim)
    | None -> "the full netlist");
  let column (t : T.result) u = Array.map (fun row -> row.(u)) t.T.data in
  List.iter
    (fun (name, ideal) ->
      let u = E.node_unknown (Option.get (Cml_spice.Netlist.find_node golden name)) in
      let w = Cml_wave.Wave.create traj.T.times (column traj u) in
      let dv = ref 0.0 in
      Array.iteri
        (fun k t ->
          dv := Float.max !dv (Float.abs (guide.T.data.(k).(u) -. Cml_wave.Wave.value_at w t)))
        guide.T.times;
      Printf.printf "cone-parity: boundary %-16s %s %8.3f mV\n" name
        (if ideal then "ideal" else "held ") (1e3 *. !dv))
    (D.Cone.boundary (D.Cone.attacked golden ~cells:[ dut_name ]));
  let delay = function Some d -> Printf.sprintf "%.1f ps" (d *. 1e12) | None -> "none" in
  Printf.printf
    "cone-parity: reference dut dV %.4f mV, final dV %.4f mV, final delay %s vs %s, supply %.4f \
     vs %.4f mA (%.1f ppm)\n"
    (1e3
    *. worst
         [ (cut.C.dut_vlow, full.C.dut_vlow); (cut.C.dut_vhigh, full.C.dut_vhigh);
           (cut.C.dut_swing, full.C.dut_swing) ])
    (1e3
    *. worst
         [ (cut.C.final_vlow, full.C.final_vlow); (cut.C.final_vhigh, full.C.final_vhigh);
           (cut.C.final_swing, full.C.final_swing) ])
    (delay cut.C.final_delay) (delay full.C.final_delay) (1e3 *. cut.C.supply_current)
    (1e3 *. full.C.supply_current)
    (1e6 *. Float.abs (cut.C.supply_current -. full.C.supply_current) /. full.C.supply_current)

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
  (* the full-netlist side: its own reference measurement, and the
     full transient that warm-starts its variants like a campaign's *)
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let reference = C.measure_design ~breakpoints ~input ~dut ~final golden ~freq ~tstop in
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
            | m -> C.Measured (m, C.classify ~proc:Cml_cells.Process.default ~reference m)
            | exception E.No_convergence msg -> C.Failed msg))
      defects
  in
  let t2 = now_s () and m2 = M.snapshot () in
  reference_deviation ~golden ~dut_name ~input ~dut ~final ~guide ~full:reference
    c.C.reference;
  let eps = C.cut_epsilon Cml_cells.Process.default in
  let differ = ref 0 and strayed = ref 0 in
  let paths = Hashtbl.create 4 in
  Printf.printf "%-40s %-8s %10s %10s %9s %9s %9s %9s  %s\n" "site" "path" "dut dV" "final dV"
    "Icone mA" "Ifull mA" "draw mA" "cut dV" "classes";
  List.iter2
    (fun (e, (v : Cml_telemetry.Manifest.variant)) full ->
      let metric k = List.assoc_opt k v.Cml_telemetry.Manifest.v_metrics in
      let path =
        match (metric "cut_abort", metric "fallback") with
        | Some 0.0, _ -> "cut"
        | _, Some 1.0 -> "fallback"
        | _, Some _ -> "cone"
        | _, None -> "full"
      in
      Hashtbl.replace paths path (1 + Option.value ~default:0 (Hashtbl.find_opt paths path));
      let mv v = Printf.sprintf "%.3f" (v *. 1e3) in
      let dut_dv, final_dv, i_cone, i_full =
        match (e.C.outcome, full) with
        | C.Measured (a, _), C.Measured (b, _) ->
            let final =
              worst
                [ (a.C.final_vlow, b.C.final_vlow); (a.C.final_vhigh, b.C.final_vhigh);
                  (a.C.final_swing, b.C.final_swing) ]
            in
            if path = "cut" && not (final <= eps) then incr strayed;
            ( Printf.sprintf "%.1f uV"
                (1e6
                *. worst
                     [ (a.C.dut_vlow, b.C.dut_vlow); (a.C.dut_vhigh, b.C.dut_vhigh);
                       (a.C.dut_swing, b.C.dut_swing) ]),
              Printf.sprintf "%.2f mV" (1e3 *. final),
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
      let opt = function Some a -> mv a | None -> "-" in
      Printf.printf "%-40s %-8s %10s %10s %9s %9s %9s %9s  %s\n" v.Cml_telemetry.Manifest.v_name
        path dut_dv final_dv i_cone i_full
        (opt (metric "boundary_draw"))
        (opt (metric "cut_deviation"))
        classes)
    (List.combine c.C.entries c.C.variants)
    full;
  let n = List.length defects in
  let count p = Option.value ~default:0 (Hashtbl.find_opt paths p) in
  Printf.printf
    "cone-parity: %d/%d identical classes; %d on the cut, %d on the cone, %d fallbacks; campaign \
     %.1f s, full netlist %.1f s\n"
    (n - !differ) n (count "cut") (count "cone") (count "fallback") (t1 -. t0) (t2 -. t1);
  Printf.printf
    "cone-parity: %d cut sites with the final output beyond %.0f mV of the full netlist\n" !strayed
    (1e3 *. eps);
  solver_line "campaign (reference + cut and cone variants)" m0 m1;
  solver_line "full netlist (reference + variants)" m1 m2;
  if !differ > 0 || !strayed > 0 then exit 1
