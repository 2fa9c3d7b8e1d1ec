(* Command-line interface to the cml-dft library: run the paper's
   experiments, inspect circuits, characterise detectors and dump
   waveforms to CSV for plotting. *)

module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module T = Cml_spice.Transient
module B = Cml_cells.Builder
module Dft = Cml_dft

open Cmdliner

(* ------------------------------------------------------------------ *)
(* shared arguments *)

let freq_arg =
  let doc = "Stimulus frequency in Hz." in
  Arg.(value & opt float 100e6 & info [ "f"; "freq" ] ~docv:"HZ" ~doc)

let pipe_arg =
  let doc = "Collector-emitter pipe resistance (ohm) injected on the DUT's Q3; 0 = fault-free." in
  Arg.(value & opt float 0.0 & info [ "p"; "pipe" ] ~docv:"OHM" ~doc)

let csv_arg =
  let doc = "Write waveforms/series to this CSV file." in
  Arg.(value & opt (some string) None & info [ "o"; "csv" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Worker domains for parallel simulation batches; $(b,0) means one per core (default: \
     $(b,CML_DFT_JOBS), then available cores - 1)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let apply_jobs = function
  | None -> ()
  | Some n when n >= 0 -> Cml_runtime.Pool.set_default_jobs n
  | Some n ->
      Printf.eprintf "cmldft: --jobs must be >= 1, or 0 for one job per core (got %d)\n" n;
      exit 2

let pipe_option pipe = if pipe > 0.0 then Some pipe else None

let no_warm_start_arg =
  let doc =
    "Cold-start every variant simulation instead of seeding Newton from the nominal \
     (fault-free) solution; an escape hatch for debugging warm-start interactions."
  in
  Arg.(value & flag & info [ "no-warm-start" ] ~doc)

let probe_arg =
  let doc =
    "Comma-separated node names to probe with streaming observers (sampled at every \
     accepted solver step, immune to $(b,record_every) thinning).  Node names as in the \
     exported deck, e.g. $(b,x3.op,x3.on)."
  in
  Arg.(value & opt (list string) [] & info [ "probe" ] ~docv:"NODE,.." ~doc)

let vcd_out_arg =
  let doc = "Dump the probed waveforms as an analog VCD to this file." in
  Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc)

(* resolve --probe names against the netlist; exits with a listing of
   the valid names on a typo rather than raising *)
let resolve_probes net names =
  List.map
    (fun name ->
      match N.find_node net name with
      | Some nd -> (name, E.node_unknown nd)
      | None ->
          Printf.eprintf "cmldft: unknown node %S (see `cmldft export` for the deck)\n" name;
          exit 2)
    names

(* telemetry flags, shared by the simulation commands *)

let trace_arg =
  let doc =
    "Record spans/events while this command runs and write a Chrome-trace JSON file \
     (loadable in chrome://tracing and Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc = "Write this command's metrics-registry movement as JSON." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let manifest_arg =
  let doc = "Write a run manifest (JSON) for $(b,cmldft report)." in
  Arg.(value & opt (some string) None & info [ "manifest" ] ~docv:"FILE" ~doc)

let events_arg =
  let doc =
    "Stream run events (JSONL, schema $(b,cml-dft-events/1)) to this file while the run is \
     in flight, for $(b,cmldft watch); $(b,-) streams to stderr."
  in
  Arg.(value & opt (some string) None & info [ "events" ] ~docv:"FILE" ~doc)

(* [with_telemetry ?events ~trace ~metrics f]: enable tracing when
   [--trace] was given and install the run-event sink when [--events]
   was, run [f], then drain the spans into the Chrome trace and the
   registry delta into the metrics file.  The sinks are written (and
   the event stream closed) even when [f] raises, so a crashed
   campaign still leaves its partial trace and stream behind. *)
let with_telemetry ?(events = None) ~trace ~metrics f =
  if trace <> None then Cml_telemetry.Trace.set_enabled true;
  (match events with
  | None -> ()
  | Some path -> Cml_telemetry.Events.(install (open_sink path)));
  let snap0 = Cml_telemetry.Metrics.snapshot () in
  let finish () =
    Cml_telemetry.Events.close ();
    (match trace with
    | None -> ()
    | Some path ->
        let events = Cml_telemetry.Trace.drain () in
        Cml_telemetry.Trace.write_chrome ~path events;
        Printf.printf "wrote %s (%d events)\n" path (List.length events));
    match metrics with
    | None -> ()
    | Some path ->
        let delta = Cml_telemetry.Metrics.diff snap0 (Cml_telemetry.Metrics.snapshot ()) in
        Cml_telemetry.Json.write_file path (Cml_telemetry.Metrics.to_json delta);
        Printf.printf "wrote %s\n" path
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* Minimal run framing for commands without a variant loop of their
   own (plan, diagnose): with a sink installed, bracket the work in
   run_start/run_end so the stream is a complete document. *)
let with_run_events ~kind f =
  if not (Cml_telemetry.Events.installed ()) then f ()
  else begin
    let t0 = Cml_telemetry.Clock.now_ns () in
    let ev = Cml_telemetry.Events.run_start ~kind ~total:0 () in
    let finish () =
      let wall_s = Cml_telemetry.Clock.ns_to_s (Int64.sub (Cml_telemetry.Clock.now_ns ()) t0) in
      Cml_telemetry.Events.finish ev ~classes:[] ~wall_s ~utilization:[]
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* End-of-run pool attribution table (campaign, mc). *)
let print_utilization ~wall_s rows =
  if rows <> [] then begin
    Printf.printf "\nutilization (wall %.3f s):\n" wall_s;
    Printf.printf "  %6s %10s %6s %6s %14s\n" "domain" "busy" "ratio" "items" "longest stall";
    List.iter
      (fun u ->
        Printf.printf "  %6d %9.3fs %6.2f %6d %13.3fs\n" u.Cml_telemetry.Events.du_domain
          u.Cml_telemetry.Events.du_busy_s u.Cml_telemetry.Events.du_busy_ratio
          u.Cml_telemetry.Events.du_items u.Cml_telemetry.Events.du_longest_stall_s)
      rows
  end

(* ------------------------------------------------------------------ *)
(* chain: simulate the Figure-3 buffer chain *)

let chain_cmd =
  let stages_arg =
    Arg.(value & opt int 8 & info [ "n"; "stages" ] ~docv:"N" ~doc:"Chain length.")
  in
  let run freq pipe stages csv probe vcd trace metrics =
    with_telemetry ~trace ~metrics @@ fun () ->
    let chain = Cml_cells.Chain.build ~stages ~freq () in
    let golden = chain.Cml_cells.Chain.builder.B.net in
    let net =
      match pipe_option pipe with
      | None -> golden
      | Some r ->
          Cml_defects.Inject.apply golden
            (Cml_defects.Defect.Pipe { device = "x3.q3"; r })
    in
    let sim = E.compile net in
    let tstop = 2.0 /. freq in
    (* --vcd without --probe dumps every stage output pair *)
    let probes =
      match (probe, vcd) with
      | [], Some _ ->
          List.concat
            (List.init stages (fun i ->
                 let d = Cml_cells.Chain.output chain (i + 1) in
                 let name = Cml_cells.Chain.stage_name (i + 1) in
                 [ (name ^ ".p", E.node_unknown d.B.p); (name ^ ".n", E.node_unknown d.B.n) ]))
      | names, _ -> resolve_probes net names
    in
    let observers = match probes with [] -> None | ps -> Some (T.observers ps) in
    let r = T.run ?observers sim net (T.config ~tstop ~max_step:10e-12 ()) in
    let wave nd = Cml_wave.Wave.create r.T.times (T.node_trace r nd) in
    Printf.printf "%-8s %10s %10s %10s\n" "stage" "vlow" "vhigh" "swing";
    let named = ref [] in
    for i = 1 to stages do
      let d = Cml_cells.Chain.output chain i in
      let w = wave d.B.p in
      named := (Printf.sprintf "op%d" i, w) :: !named;
      let lo, hi = Cml_wave.Measure.extremes w ~t_from:(tstop /. 2.0) in
      Printf.printf "%-8d %8.4f V %8.4f V %7.1f mV\n" i lo hi ((hi -. lo) *. 1e3)
    done;
    let probed_waves =
      match observers with
      | None -> []
      | Some obs ->
          List.map (fun (name, ts, vs) -> (name, Cml_wave.Wave.create ts vs))
            (T.probe_list obs)
    in
    (match probed_waves with
    | [] -> ()
    | (_, w0) :: _ ->
        Printf.printf "probed %d node%s at %d accepted steps\n" (List.length probed_waves)
          (if List.length probed_waves = 1 then "" else "s")
          (Cml_wave.Wave.length w0));
    (match vcd with
    | None -> ()
    | Some path ->
        Cml_wave.Vcd_analog.write ~path probed_waves;
        Printf.printf "wrote %s\n" path);
    match csv with
    | None -> ()
    | Some path ->
        Cml_wave.Csv.write ~path (List.rev !named);
        Printf.printf "wrote %s\n" path
  in
  let info = Cmd.info "chain" ~doc:"Simulate the paper's buffer chain (optionally faulty)." in
  Cmd.v info
    Term.(const run $ freq_arg $ pipe_arg $ stages_arg $ csv_arg $ probe_arg $ vcd_out_arg
          $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* detector: characterise a built-in detector *)

let detector_cmd =
  let variant_arg =
    let doc = "Detector variant: 1 (single-sided) or 2 (vtest-biased)." in
    Arg.(value & opt int 1 & info [ "v"; "variant" ] ~docv:"V" ~doc)
  in
  let tstop_arg =
    Arg.(value & opt float 120e-9 & info [ "t"; "tstop" ] ~docv:"S" ~doc:"Simulated time.")
  in
  let run freq pipe variant tstop csv vcd trace metrics =
    with_telemetry ~trace ~metrics @@ fun () ->
    let proc = Cml_cells.Process.default in
    let v =
      match variant with
      | 1 -> Dft.Experiment.V1 Dft.Detector.v1_default
      | 2 ->
          Dft.Experiment.V2
            { cfg = Dft.Detector.v2_default; vtest = Dft.Detector.vtest_test proc }
      | n -> failwith (Printf.sprintf "unknown variant %d" n)
    in
    let r =
      Dft.Experiment.detector_response ~variant:v ~freq ~pipe:(pipe_option pipe) ~tstop ()
    in
    Printf.printf "excursion   : %.3f V\n" r.Dft.Experiment.excursion;
    Printf.printf "vout drop   : %.3f V\n" r.Dft.Experiment.vout_drop;
    Printf.printf "tstability  : %s\n"
      (match r.Dft.Experiment.tstability with
      | Some t -> Printf.sprintf "%.1f ns" (t *. 1e9)
      | None -> "beyond tstop");
    Printf.printf "t95         : %s\n"
      (match r.Dft.Experiment.t_settle with
      | Some t -> Printf.sprintf "%.1f ns" (t *. 1e9)
      | None -> "beyond tstop");
    Printf.printf "Vmax        : %.3f V\n" r.Dft.Experiment.vmax;
    (match csv with
    | None -> ()
    | Some path ->
        Cml_wave.Csv.write ~path
          [
            ("vout", r.Dft.Experiment.vout);
            ("op", r.Dft.Experiment.out_p);
            ("opb", r.Dft.Experiment.out_n);
          ];
        Printf.printf "wrote %s\n" path);
    (match vcd with
    | None -> ()
    | Some path ->
        Cml_wave.Vcd_analog.write ~path
          [
            ("det.vout", r.Dft.Experiment.vout);
            ("op", r.Dft.Experiment.out_p);
            ("opb", r.Dft.Experiment.out_n);
          ];
        Printf.printf "wrote %s\n" path);
    print_string (Cml_wave.Ascii_plot.render ~height:12 [ ("vout", r.Dft.Experiment.vout) ])
  in
  let info = Cmd.info "detector" ~doc:"Characterise a built-in amplitude detector." in
  Cmd.v info
    Term.(const run $ freq_arg $ pipe_arg $ variant_arg $ tstop_arg $ csv_arg $ vcd_out_arg
          $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* sharing: the Figure-14 sweep *)

let sharing_cmd =
  let ns_arg =
    let doc = "Comma-separated sharing group sizes." in
    Arg.(value & opt (list int) [ 1; 10; 20; 30; 45; 60 ] & info [ "n" ] ~docv:"N,.." ~doc)
  in
  let run ns csv =
    let pts = Dft.Sharing.sweep_n ~multi_emitter:true ~ns () in
    Printf.printf "%-6s %10s %10s %10s\n" "N" "vout" "vfb" "flag";
    List.iter
      (fun p ->
        Printf.printf "%-6d %8.4f V %8.4f V %8.4f V\n" p.Dft.Sharing.n p.Dft.Sharing.vout
          p.Dft.Sharing.vfb p.Dft.Sharing.flag)
      pts;
    (match csv with
    | None -> ()
    | Some path ->
        Cml_wave.Csv.write_table ~path ~header:[ "n"; "vout"; "vfb"; "flag" ]
          (List.map
             (fun p ->
               [ float_of_int p.Dft.Sharing.n; p.Dft.Sharing.vout; p.Dft.Sharing.vfb;
                 p.Dft.Sharing.flag ])
             pts);
        Printf.printf "wrote %s\n" path);
    let h = Dft.Experiment.hysteresis () in
    match h.Dft.Experiment.switch_up with
    | Some upper ->
        Printf.printf "safe sharing limit (vout > %.3f V): N = %d\n" upper
          (Dft.Sharing.max_safe_sharing pts ~upper_threshold:upper)
    | None -> ()
  in
  let info = Cmd.info "sharing" ~doc:"Load-sharing sweep (paper Fig. 14)." in
  Cmd.v info Term.(const run $ ns_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* campaign: defect-injection campaign *)

let campaign_cmd =
  let bench_arg =
    let doc =
      "ISCAS-style $(b,.bench) circuit to attack instead of the built-in buffer chain.  \
       The circuit is compiled onto the CML cell library ($(b,Cml_cells.Compile)): one \
       series-gated cell per net, free rail-swap NOTs, master-slave flip-flops on a \
       global clock, fanout-scaled tail currents."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.bench" ~doc)
  in
  let dut_arg =
    let doc =
      "Instance to attack: a chain stage like $(b,x3) (the default), or — with a \
       $(b,.bench) target — a compiled cell name (a declared output or $(b,n)$(i,ID); \
       default: the first gate in topological order)."
    in
    Arg.(value & opt (some string) None & info [ "dut" ] ~docv:"INST" ~doc)
  in
  let no_batch_arg =
    let doc =
      "Schedule one defect per slice instead of up to 16.  Slicing is a pure scheduling \
       choice: every variant compiles and solves on its own, so results are identical; \
       $(b,make campaign-parity) checks that on the buffer chain and the c432 surrogate."
    in
    Arg.(value & flag & info [ "no-batch" ] ~doc)
  in
  let max_iter_arg =
    let doc =
      "Cap Newton iterations per solve (engine default 100).  Low caps (e.g. $(b,12)) are \
       a stress knob: solves that marginal defects make hard fail visibly instead of \
       grinding, which $(b,cmldft explain) then attributes step by step.  Recorded in the \
       run options so $(b,explain) re-simulates under the same cap."
    in
    Arg.(value & opt (some int) None & info [ "max-iter" ] ~docv:"N" ~doc)
  in
  let print_entries c =
    List.iter
      (fun e ->
        let open Cml_defects.Campaign in
        match e.outcome with
        | Failed msg ->
            Printf.printf "%-44s FAILED %s\n" (Cml_defects.Defect.describe e.defect) msg
        | Measured (m, f) ->
            Printf.printf "%-44s vlow=%.3f swing=%.3f%s%s%s\n"
              (Cml_defects.Defect.describe e.defect) m.dut_vlow m.dut_swing
              (if f.stuck then " STUCK" else "")
              (if f.excessive_excursion then " EXCURSION" else "")
              (if f.healed then " healed" else ""))
      c.Cml_defects.Campaign.entries;
    print_newline ();
    List.iter (fun (k, v) -> Printf.printf "%-24s %d\n" k v) (Cml_defects.Campaign.summary c)
  in
  let chain_campaign ~freq ~dut ~no_warm_start ~no_batch ~max_iter ~manifest =
    let golden = Cml_cells.Chain.build ~stages:8 ~freq () in
    let defects =
      Cml_defects.Sites.enumerate golden.Cml_cells.Chain.builder.B.net ~prefix:dut
        ~pipe_values:[ 1e3; 4e3 ]
    in
    Printf.printf "running %d defects on %s (%d jobs%s)...\n%!" (List.length defects) dut
      (Cml_runtime.Pool.default_jobs ())
      (if no_batch then ", unbatched" else "");
    (* the probes, the healing profile and the recorded "dut" option
       follow the attacked stage *)
    let stage = List.find_opt (fun i -> Cml_cells.Chain.stage_name i = dut) (List.init 8 succ) in
    Cml_defects.Campaign.run ~freq ?dut:stage ~warm_start:(not no_warm_start)
      ~batch:(not no_batch) ?max_iter ?manifest ~defects ()
  in
  let bench_campaign ~freq ~path ~dut ~no_warm_start ~no_batch ~max_iter ~manifest =
    let circuit = Cml_logic.Bench_format.read_file ~path in
    let design = Cml_cells.Compile.compile ~freq circuit in
    let dut =
      match dut with Some d -> d | None -> Cml_cells.Compile.default_dut design
    in
    let dut_out =
      match Cml_cells.Compile.find_cell design dut with
      | Some d -> d
      | None ->
          Printf.eprintf "cmldft campaign: no compiled cell %S in %s\n" dut path;
          exit 2
    in
    if not (Cml_cells.Compile.physical design dut) then begin
      Printf.eprintf
        "cmldft campaign: cell %S is a free complement (no devices, no defect sites)\n" dut;
      exit 2
    end;
    let golden = Cml_cells.Compile.netlist design in
    let defects = Cml_defects.Sites.enumerate golden ~prefix:dut ~pipe_values:[ 1e3; 4e3 ] in
    let out_name = Cml_cells.Compile.default_output design in
    let final = List.assoc out_name design.Cml_cells.Compile.outputs in
    let cells, devices = Cml_cells.Compile.stats design in
    Printf.printf
      "compiled %s: %d cells, %d devices; attacking %s, measuring %s (%d defects, %d jobs%s)...\n%!"
      path cells devices dut out_name (List.length defects)
      (Cml_runtime.Pool.default_jobs ())
      (if no_batch then ", unbatched" else "");
    Cml_defects.Campaign.run_design ~freq ~warm_start:(not no_warm_start)
      ~batch:(not no_batch) ?max_iter ?manifest
      ~options:[ ("bench", path); ("dut", dut) ]
      ~golden ~input:design.Cml_cells.Compile.input ~dut:dut_out ~final ~defects ()
  in
  let run freq bench dut jobs no_warm_start no_batch max_iter trace metrics manifest events =
    apply_jobs jobs;
    with_telemetry ~events ~trace ~metrics @@ fun () ->
    let c =
      match bench with
      | None ->
          let dut = Option.value ~default:"x3" dut in
          chain_campaign ~freq ~dut ~no_warm_start ~no_batch ~max_iter ~manifest
      | Some path -> (
          match bench_campaign ~freq ~path ~dut ~no_warm_start ~no_batch ~max_iter ~manifest
          with
          | c -> c
          | exception Cml_logic.Bench_format.Parse_error { line; message } ->
              Printf.eprintf "cmldft campaign: bench parse error at line %d: %s\n" line
                message;
              exit 2
          | exception Sys_error msg ->
              Printf.eprintf "cmldft campaign: %s\n" msg;
              exit 2)
    in
    print_entries c;
    Printf.printf "reference: %s\n"
      (match c.Cml_defects.Campaign.active_cone with
      | Some k -> Printf.sprintf "active cone, %d unknowns" k
      | None -> "full netlist");
    Option.iter (Printf.printf "cone: %s\n")
      (Cml_telemetry.Manifest.cone_line c.Cml_defects.Campaign.variants);
    Option.iter (Printf.printf "cut: %s\n")
      (Cml_telemetry.Manifest.cut_line c.Cml_defects.Campaign.variants);
    print_utilization ~wall_s:c.Cml_defects.Campaign.wall_s c.Cml_defects.Campaign.utilization;
    match manifest with Some path -> Printf.printf "wrote %s\n" path | None -> ()
  in
  let info =
    Cmd.info "campaign"
      ~doc:
        "Defect-injection campaign (paper section 5) on the buffer chain or a compiled \
         $(b,.bench) design."
  in
  Cmd.v info
    Term.(const run $ freq_arg $ bench_arg $ dut_arg $ jobs_arg $ no_warm_start_arg
          $ no_batch_arg $ max_iter_arg $ trace_arg $ metrics_arg $ manifest_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* diagnose: waveform-level drill-down on one defect *)

let diagnose_cmd =
  let bench_arg =
    let doc =
      "ISCAS-style $(b,.bench) circuit to diagnose on (compiled onto the CML cell \
       library); the health-profile rows become the attacked cell and every primary \
       output.  Without it, the built-in buffer chain is diagnosed."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.bench" ~doc)
  in
  let stages_arg =
    Arg.(value & opt int 8 & info [ "n"; "stages" ] ~docv:"N" ~doc:"Chain length.")
  in
  let dut_arg =
    Arg.(value & opt int 3 & info [ "dut" ] ~docv:"STAGE" ~doc:"Stage carrying the defect.")
  in
  let cell_arg =
    let doc =
      "With a $(b,.bench) target, the compiled cell to attack (default: the first gate \
       in topological order)."
    in
    Arg.(value & opt (some string) None & info [ "cell" ] ~docv:"INST" ~doc)
  in
  let pipe_arg =
    let doc = "Collector-emitter pipe resistance (ohm) injected on the DUT's Q3." in
    Arg.(value & opt float 3000.0 & info [ "p"; "pipe" ] ~docv:"OHM" ~doc)
  in
  let json_arg =
    let doc = "Write the structured diagnosis record (JSON) for $(b,cmldft report)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let plot_arg =
    Arg.(value & flag & info [ "plot" ] ~doc:"Render ASCII plots of the DUT and detector waves.")
  in
  let run freq pipe bench stages dut cell json vcd plot trace metrics events =
    with_telemetry ~events ~trace ~metrics @@ fun () ->
    with_run_events ~kind:"diagnose" @@ fun () ->
    let d, dut_wave_name =
      match bench with
      | None ->
          if dut < 1 || dut > stages then begin
            Printf.eprintf "cmldft diagnose: --dut must be within 1..%d\n" stages;
            exit 2
          end;
          let defect =
            Cml_defects.Defect.Pipe
              { device = Cml_cells.Chain.stage_name dut ^ ".q3"; r = pipe }
          in
          (Dft.Diagnose.run ~freq ~stages ~dut ~defect (),
           Cml_cells.Chain.stage_name dut ^ ".p")
      | Some path -> (
          match
            let circuit = Cml_logic.Bench_format.read_file ~path in
            let design = Cml_cells.Compile.compile ~freq circuit in
            let cell =
              match cell with
              | Some c -> c
              | None -> Cml_cells.Compile.default_dut design
            in
            (* prefer the cell's tail-source pipe (the chain default's
               x<i>.q3 analogue); fall back to the first pipe site so
               every gate topology resolves (a flip-flop's tails live
               in .m/.s) *)
            let pipes =
              List.filter
                (function Cml_defects.Defect.Pipe _ -> true | _ -> false)
                (Cml_defects.Sites.enumerate
                   (Cml_cells.Compile.netlist design)
                   ~prefix:cell ~pipe_values:[ pipe ])
            in
            let is_tail = function
              | Cml_defects.Defect.Pipe { device; _ } ->
                  String.length device >= 3
                  && String.sub device (String.length device - 3) 3 = ".q3"
              | _ -> false
            in
            let defect =
              match (List.find_opt is_tail pipes, pipes) with
              | Some d, _ -> d
              | None, d :: _ -> d
              | None, [] ->
                  Printf.eprintf
                    "cmldft diagnose: cell %S has no pipe site (free complement?)\n" cell;
                  exit 2
            in
            (Dft.Diagnose.run_design ~design ~dut:cell ~defect (), cell ^ ".p")
          with
          | r -> r
          | exception Cml_logic.Bench_format.Parse_error { line; message } ->
              Printf.eprintf "cmldft diagnose: bench parse error at line %d: %s\n" line
                message;
              exit 2
          | exception Sys_error msg ->
              Printf.eprintf "cmldft diagnose: %s\n" msg;
              exit 2)
    in
    print_string (Dft.Diagnose.render_text d);
    if plot then begin
      let dut_wave = List.assoc dut_wave_name d.Dft.Diagnose.waves in
      print_newline ();
      print_string (Cml_wave.Ascii_plot.render ~height:12 [ (dut_wave_name, dut_wave) ]);
      print_newline ();
      print_string
        (Cml_wave.Ascii_plot.render ~height:12 [ ("det.vout", d.Dft.Diagnose.detector_wave) ])
    end;
    (match json with
    | None -> ()
    | Some path ->
        Dft.Diagnose.write_json ~path d;
        Printf.printf "wrote %s\n" path);
    match vcd with
    | None -> ()
    | Some path ->
        Dft.Diagnose.write_vcd ~path d;
        Printf.printf "wrote %s\n" path
  in
  let doc =
    "Diagnose one defect at waveform level: per-stage signal health against the fault-free \
     circuit (the chain, or a compiled $(b,.bench) design), healing depth (paper section \
     5) and the detector-response timeline (Figs. 7/8/10), with JSON and analog-VCD \
     outputs."
  in
  let info = Cmd.info "diagnose" ~doc in
  Cmd.v info
    Term.(const run $ freq_arg $ pipe_arg $ bench_arg $ stages_arg $ dut_arg $ cell_arg
          $ json_arg $ vcd_out_arg $ plot_arg $ trace_arg $ metrics_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* area *)

let area_cmd =
  let run () =
    let schemes =
      [
        Dft.Area.Menon_xor;
        Dft.Area.Variant1 Dft.Detector.v1_default;
        Dft.Area.Variant2 Dft.Detector.v2_default;
        Dft.Area.Variant3 { multi_emitter = true; sharing = 45 };
      ]
    in
    Printf.printf "%-40s %8s %8s %8s %10s\n" "scheme" "BJT" "res" "cap" "overhead";
    List.iter
      (fun s ->
        let b, r, c = Dft.Area.per_gate_counts s in
        Printf.printf "%-40s %8.2f %8.2f %8.2f %9.0f%%\n" (Dft.Area.scheme_name s) b r c
          (100.0 *. Dft.Area.overhead_fraction s))
      schemes
  in
  let info = Cmd.info "area" ~doc:"Area overhead of the DFT schemes." in
  Cmd.v info Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* mc: Monte-Carlo robustness *)

let mc_cmd =
  let samples_arg =
    Arg.(value & opt int 40 & info [ "s"; "samples" ] ~docv:"N" ~doc:"Monte-Carlo samples.")
  in
  let seed_arg = Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let gates_arg =
    Arg.(value & opt int 10 & info [ "g"; "gates" ] ~docv:"N" ~doc:"Monitored gates per block.")
  in
  let run samples seed gates jobs no_warm_start trace metrics manifest events =
    apply_jobs jobs;
    with_telemetry ~events ~trace ~metrics @@ fun () ->
    let r =
      Dft.Montecarlo.run ~n:gates ~warm_start:(not no_warm_start) ?manifest ~samples ~seed ()
    in
    Printf.printf "samples       : %d good + %d faulty\n" samples samples;
    Printf.printf "false alarms  : %d\n" r.Dft.Montecarlo.false_alarms;
    Printf.printf "missed        : %d\n" r.Dft.Montecarlo.missed;
    Printf.printf "good vout     : mean %.4f V, sigma %.1f mV, worst %.4f V\n"
      (Cml_numerics.Stats.mean r.Dft.Montecarlo.good_vouts)
      (1e3 *. Cml_numerics.Stats.stddev r.Dft.Montecarlo.good_vouts)
      r.Dft.Montecarlo.good_vout_min;
    Printf.printf "margin        : %.3f V\n" r.Dft.Montecarlo.separation;
    print_utilization ~wall_s:r.Dft.Montecarlo.wall_s r.Dft.Montecarlo.utilization;
    match manifest with Some path -> Printf.printf "wrote %s\n" path | None -> ()
  in
  let info = Cmd.info "mc" ~doc:"Monte-Carlo robustness of the DFT under process spread." in
  Cmd.v info
    Term.(const run $ samples_arg $ seed_arg $ gates_arg $ jobs_arg $ no_warm_start_arg
          $ trace_arg $ metrics_arg $ manifest_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* logic: run a .bench circuit through the digital test flow *)

let logic_cmd =
  let file_arg =
    Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
           ~doc:"ISCAS-style .bench netlist (default: the embedded s27).")
  in
  let patterns_arg =
    Arg.(value & opt int 256 & info [ "p"; "patterns" ] ~docv:"N" ~doc:"LFSR pattern count.")
  in
  let vcd_arg =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc:"Dump a VCD trace.")
  in
  let run file patterns vcd jobs =
    apply_jobs jobs;
    let c =
      match file with
      | Some path -> Cml_logic.Bench_format.read_file ~path
      | None -> Cml_logic.Bench_format.s27 ()
    in
    let width = List.length c.Cml_logic.Circuit.inputs in
    Printf.printf "circuit: %d nets, %d inputs, %d outputs, %d flip-flops, depth %d\n"
      (Cml_logic.Circuit.num_nets c) width
      (List.length c.Cml_logic.Circuit.outputs)
      (Array.length c.Cml_logic.Circuit.dffs)
      (Cml_logic.Timing.depth c);
    Printf.printf "datapath clock floor at the 54 ps CML gate delay: %.2f GHz\n"
      (1.0 /. Cml_logic.Timing.min_clock_period c ~gate_delay:54e-12 /. 1e9);
    let initial = Cml_logic.Sim.initial c Cml_logic.Value.F in
    let pats =
      Cml_logic.Patterns.lfsr_patterns (Cml_logic.Patterns.lfsr_create ()) ~width ~count:patterns
    in
    Printf.printf "toggle coverage (%d LFSR patterns): %.1f%%\n" patterns
      (100.0 *. Cml_logic.Coverage.coverage_after c ~initial ~patterns:pats);
    let cov, det, total = Cml_logic.Faultsim.coverage c ~initial ~patterns:pats in
    Printf.printf "stuck-at coverage: %.1f%% (%d/%d)\n" (100.0 *. cov) det total;
    let directed = Cml_logic.Directed.directed_patterns c ~initial ~seed:7 () in
    (match Cml_logic.Directed.patterns_to_full_coverage c ~initial ~patterns:directed with
    | Some n -> Printf.printf "directed patterns to full toggle coverage: %d\n" n
    | None -> print_endline "directed generation did not reach full coverage");
    match vcd with
    | None -> ()
    | Some path ->
        let _, frames = Cml_logic.Sim.run c initial ~patterns:pats in
        Cml_logic.Vcd.write ~path c ~frames;
        Printf.printf "wrote %s\n" path
  in
  let info = Cmd.info "logic" ~doc:"Digital test flow on a .bench circuit." in
  Cmd.v info Term.(const run $ file_arg $ patterns_arg $ vcd_arg $ jobs_arg)

(* ------------------------------------------------------------------ *)
(* export: write a circuit as a SPICE-flavoured deck *)

let export_cmd =
  let stages_arg =
    Arg.(value & opt int 8 & info [ "n"; "stages" ] ~docv:"N" ~doc:"Chain length.")
  in
  let out_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"Output path.")
  in
  let run freq stages path =
    let chain = Cml_cells.Chain.build ~stages ~freq () in
    Cml_spice.Netlist_io.write_file ~path chain.Cml_cells.Chain.builder.B.net;
    Printf.printf "wrote %s (%d devices)\n" path
      (N.device_count chain.Cml_cells.Chain.builder.B.net)
  in
  let info = Cmd.info "export" ~doc:"Export the buffer-chain netlist as a text deck." in
  Cmd.v info Term.(const run $ freq_arg $ stages_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* op: operating-point report *)

let op_cmd =
  let stages_arg =
    Arg.(value & opt int 3 & info [ "n"; "stages" ] ~docv:"N" ~doc:"Chain length.")
  in
  let bench_arg =
    let doc =
      "Compile this ISCAS-style $(b,.bench) circuit onto the CML cell library and solve \
       its DC operating point, reporting design size, solver/ordering statistics and the \
       primary-output levels instead of the per-transistor table."
    in
    Arg.(value & opt (some string) None & info [ "bench" ] ~docv:"FILE.bench" ~doc)
  in
  let run pipe stages bench events =
    with_telemetry ~events ~trace:None ~metrics:None @@ fun () ->
    with_run_events ~kind:"op" @@ fun () ->
    match bench with
    | Some path -> (
        match Cml_logic.Bench_format.read_file ~path with
        | exception Cml_logic.Bench_format.Parse_error { line; message } ->
            Printf.eprintf "cmldft op: bench parse error at line %d: %s\n" line message;
            exit 2
        | exception Sys_error msg ->
            Printf.eprintf "cmldft op: %s\n" msg;
            exit 2
        | circuit ->
            let design = Cml_cells.Compile.compile circuit in
            let cells, devices = Cml_cells.Compile.stats design in
            let sim = E.compile (Cml_cells.Compile.netlist design) in
            let x = E.dc_operating_point sim in
            let s = E.solver_stats sim in
            Printf.printf "compiled %s: %d cells, %d devices, %d unknowns\n" path cells
              devices (E.unknown_count sim);
            Printf.printf
              "solver: %d Newton iters, ordering %s, nnz(L+U) %d, fill ratio %.2f\n"
              s.E.newton_iters s.E.lu_ordering s.E.lu_nnz_factors s.E.lu_fill_ratio;
            Printf.printf "start: %s\n"
              (if s.E.seeded_starts = 0 then "0 V (no nodeset), homotopy"
               else if s.E.seed_fallbacks = 0 then "nodeset (logic-consistent cell templates)"
               else "nodeset failed, fell back to the 0 V homotopy");
            Printf.printf "%-12s %10s %10s\n" "output" "true" "complement";
            List.iter
              (fun (nm, d) ->
                Printf.printf "%-12s %8.3f V %8.3f V\n" nm
                  (E.voltage x d.B.p) (E.voltage x d.B.n))
              design.Cml_cells.Compile.outputs)
    | None ->
        let chain = Cml_cells.Chain.build_dc ~stages ~value:true () in
        let golden = chain.Cml_cells.Chain.builder.B.net in
        let net =
          match pipe_option pipe with
          | None -> golden
          | Some r ->
              Cml_defects.Inject.apply golden (Cml_defects.Defect.Pipe { device = "x3.q3"; r })
        in
        let sim = E.compile net in
        let x = E.dc_operating_point sim in
        Printf.printf "%-16s %10s %10s %12s %12s\n" "device" "VBE" "VCE" "IC" "IB";
        List.iter
          (fun (o : E.bjt_op) ->
            Printf.printf "%-16s %8.3f V %8.3f V %9.3f uA %9.3f uA\n" o.E.q_name o.E.vbe
              o.E.vce (o.E.ic *. 1e6) (o.E.ib *. 1e6))
          (E.bjt_report sim x)
  in
  let info =
    Cmd.info "op"
      ~doc:"SPICE-style transistor operating-point report (or a compiled-design DC summary)."
  in
  Cmd.v info Term.(const run $ pipe_arg $ stages_arg $ bench_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* lint: the unified static-analysis pass *)

let lint_cmd =
  let module A = Cml_analysis in
  let files_arg =
    let doc =
      "Files to lint: SPICE-flavoured netlist decks (ERC + CML rules) or $(b,.bench) \
       circuits (SCOAP testability rules).  With no files, a built-in self-check runs over \
       the paper's chain, an instrumented chain with its insertion plan, and the embedded \
       s27 benchmark."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let fail_on_arg =
    let doc = "Exit non-zero when a finding of at least this severity exists: $(docv) is \
               $(b,error), $(b,warning) or $(b,info)." in
    let level =
      Arg.enum
        [ ("error", A.Diagnostic.Error); ("warning", A.Diagnostic.Warning);
          ("info", A.Diagnostic.Info) ]
    in
    Arg.(value & opt level A.Diagnostic.Error & info [ "fail-on" ] ~docv:"LEVEL" ~doc)
  in
  let rules_arg =
    Arg.(value & flag
         & info [ "rules"; "list-rules" ] ~doc:"Print the full rule catalog and exit.")
  in
  let max_share_arg =
    let doc = "Safe sharing limit for the DFT-coverage audit (paper section 6.4)." in
    Arg.(value & opt int 45 & info [ "max-share" ] ~docv:"N" ~doc)
  in
  let print_rules () =
    Printf.printf "%-10s %-7s %-8s %s\n" "rule" "family" "severity" "description";
    List.iter
      (fun (r : A.Rules.info) ->
        Printf.printf "%-10s %-7s %-8s %s\n" r.A.Rules.id r.A.Rules.family
          (A.Diagnostic.severity_name r.A.Rules.severity)
          r.A.Rules.title)
      A.Rules.all
  in
  let builtin_targets max_share =
    let chain = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
    let instrumented = Cml_cells.Chain.build ~stages:8 ~freq:100e6 () in
    let plan = Dft.Insertion.instrument instrumented.Cml_cells.Chain.builder in
    [
      ("builtin:chain8", A.Lint.netlist chain.Cml_cells.Chain.builder.B.net);
      ( "builtin:instrumented-chain8",
        A.Lint.netlist instrumented.Cml_cells.Chain.builder.B.net );
      ( "builtin:insertion-plan",
        Dft.Audit.check ~max_safe_share:max_share plan instrumented.Cml_cells.Chain.builder );
      ("builtin:s27.bench", A.Lint.circuit (Cml_logic.Bench_format.s27 ()));
    ]
  in
  let json_escape s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let lint_code files json fail_on rules max_share =
    if rules then (print_rules (); 0)
    else
      match
        if files = [] then builtin_targets max_share else A.Lint.files files
      with
      | exception Cml_spice.Netlist_io.Parse_error { line; message } ->
          Printf.eprintf "cmldft lint: netlist parse error at line %d: %s\n" line message;
          2
      | exception Cml_logic.Bench_format.Parse_error { line; message } ->
          Printf.eprintf "cmldft lint: bench parse error at line %d: %s\n" line message;
          2
      | exception Sys_error msg ->
          Printf.eprintf "cmldft lint: %s\n" msg;
          2
      | targets ->
          if json then begin
            let buf = Buffer.create 1024 in
            Buffer.add_string buf "{\"targets\":[";
            List.iteri
              (fun i (name, ds) ->
                if i > 0 then Buffer.add_char buf ',';
                Buffer.add_string buf
                  (Printf.sprintf {|{"target":"%s","report":%s}|} (json_escape name)
                     (String.trim (A.Diagnostic.render_json ds))))
              targets;
            Buffer.add_string buf "]}\n";
            print_string (Buffer.contents buf)
          end
          else
            List.iter
              (fun (name, ds) ->
                Printf.printf "== %s ==\n%s" name (A.Diagnostic.render_text ds))
              targets;
          let all = List.concat_map snd targets in
          if A.Lint.fails ~fail_on all then 1 else 0
  in
  let run files json fail_on rules max_share jobs events =
    apply_jobs jobs;
    let code =
      with_telemetry ~events ~trace:None ~metrics:None @@ fun () ->
      with_run_events ~kind:"lint" @@ fun () -> lint_code files json fail_on rules max_share
    in
    if code <> 0 then exit code
  in
  let doc =
    "Static analysis: electrical rules, DFT-coverage audit and the SCOAP/COP/distance \
     testability metrics."
  in
  let info = Cmd.info "lint" ~doc in
  Cmd.v info
    Term.(const run $ files_arg $ json_arg $ fail_on_arg $ rules_arg $ max_share_arg
          $ jobs_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* plan: COP/SCOAP-guided detector placement *)

let plan_cmd =
  let module A = Cml_analysis in
  let module P = Dft.Placement in
  let file_arg =
    let doc =
      "ISCAS-style $(b,.bench) circuit to plan detectors for (one detector site per \
       non-input net).  Mutually exclusive with $(b,--scenario)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE.bench" ~doc)
  in
  let scenario_arg =
    let doc = "Built-in scenario: $(b,chain) (the paper's buffer chain) or $(b,adder) \
               (the instrumented ripple-carry adder).  The plan is realized on the \
               transistor-level circuit and audited (DFT001-004)." in
    Arg.(value & opt (some (enum [ ("chain", `Chain); ("adder", `Adder) ])) None
         & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let stages_arg =
    Arg.(value & opt int 8 & info [ "n"; "stages" ] ~docv:"N" ~doc:"Chain length.")
  in
  let bits_arg =
    Arg.(value & opt int 4 & info [ "bits" ] ~docv:"N" ~doc:"Adder operand width.")
  in
  let limit_arg =
    let doc = "Nominal per-group detector limit (the paper's margin budget)." in
    Arg.(value & opt int Dft.Derate.nominal_group_limit & info [ "limit" ] ~docv:"N" ~doc)
  in
  let derate_arg =
    let doc =
      "Derate $(b,--limit) for process spread: Monte-Carlo sample the sensor-droop and \
       comparator-offset distributions of the default variation spec and plan against the \
       group size 99.9% of process samples still share safely (about 15 at the nominal 45)."
    in
    Arg.(value & flag & info [ "derate" ] ~doc)
  in
  let samples_arg =
    Arg.(value & opt int 2000 & info [ "samples" ] ~docv:"N" ~doc:"Derating MC samples.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Derating RNG seed.")
  in
  let budget_arg =
    let doc = "Fail (exit 1) when the plan's DFT-transistor overhead exceeds this fraction \
               of the functional transistors, e.g. $(b,0.6)." in
    Arg.(value & opt (some float) None & info [ "budget" ] ~docv:"FRACTION" ~doc)
  in
  let json_arg =
    let doc = "Write the plan as JSON (schema $(b,cml-dft-plan/1), renderable by \
               $(b,cmldft report)); $(b,-) prints it on stdout instead of the text report." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let bench_sites path =
    let c = Cml_logic.Bench_format.read_file ~path in
    let module C = Cml_logic.Circuit in
    (* same naming contract as the CML compiler (Circuit.net_names),
       so a plan realized on the compiled design resolves by name *)
    let names = C.net_names c in
    let cells = ref [] in
    Array.iteri
      (fun net g -> match g with C.Input _ -> () | _ -> cells := (names.(net), net) :: !cells)
      c.C.gates;
    (c, List.rev !cells)
  in
  let build_adder bits =
    let b = B.create () in
    let operand name v =
      Array.init bits (fun k ->
          B.diff_dc_input b ~name:(Printf.sprintf "%s%d" name k) ~value:((v lsr k) land 1 = 1))
    in
    let a = operand "a" 11 and bv = operand "b" 6 in
    let cin = B.diff_dc_input b ~name:"cin" ~value:false in
    let _ = Cml_cells.Adder.ripple_carry b ~name:"add" ~a ~b:bv ~cin in
    b
  in
  let plan_code file scenario stages bits limit derate samples seed budget json =
    if limit < 1 then begin
      Printf.eprintf "cmldft plan: --limit must be >= 1 (got %d)\n" limit;
      2
    end
    else
      let target =
        match (file, scenario) with
        | Some _, Some _ ->
            Printf.eprintf "cmldft plan: give either FILE.bench or --scenario, not both\n";
            exit 2
        | Some path, None -> `File path
        | None, Some s -> `Scenario s
        | None, None -> `Scenario `Chain
      in
      let effective, derated =
        if derate then begin
          let model =
            Dft.Derate.of_spec ~nominal_limit:limit Cml_defects.Variation.default_spec
          in
          let r = Dft.Derate.effective_limit ~samples ~seed model in
          (r.Dft.Derate.effective, Some r)
        end
        else (limit, None)
      in
      match
        match target with
        | `File path ->
            let circuit, cells = bench_sites path in
            (* realize on the compiled CML design: the compiler names
               cells by the same output-name-or-"n<id>" contract
               [bench_sites] uses, so the optimizer's groups resolve
               directly *)
            let realize groups =
              let design = Cml_cells.Compile.compile circuit in
              let b = design.Cml_cells.Compile.builder in
              (Dft.Insertion.instrument_groups ~groups b, b)
            in
            (circuit, cells, Some realize)
        | `Scenario `Chain ->
            let circuit, cells = P.chain_twin ~stages in
            let realize groups =
              let chain = Cml_cells.Chain.build_dc ~stages ~value:true () in
              let b = chain.Cml_cells.Chain.builder in
              (Dft.Insertion.instrument_groups ~groups b, b)
            in
            (circuit, cells, Some realize)
        | `Scenario `Adder ->
            let circuit, cells = P.adder_twin ~bits in
            let realize groups =
              let b = build_adder bits in
              (Dft.Insertion.instrument_groups ~groups b, b)
            in
            (circuit, cells, Some realize)
      with
      | exception Cml_logic.Bench_format.Parse_error { line; message } ->
          Printf.eprintf "cmldft plan: bench parse error at line %d: %s\n" line message;
          2
      | exception Sys_error msg ->
          Printf.eprintf "cmldft plan: %s\n" msg;
          2
      | circuit, cells, realize ->
          let plan =
            P.optimize ~nominal_limit:limit ~limit:effective (P.sites ~circuit ~cells)
          in
          let diags =
            P.check plan
            @
            match realize with
            | None -> []
            | Some f ->
                let iplan, b = f (P.to_groups plan) in
                Dft.Audit.check ~max_safe_share:effective iplan b
          in
          let diags = A.Diagnostic.sort diags in
          if json = Some "-" then
            print_string (Cml_telemetry.Json.to_string (P.to_json plan))
          else begin
            (match derated with
            | None -> ()
            | Some r ->
                Printf.printf "derated limit: %d -> %d (%d MC samples, %.1f%% confidence)\n"
                  limit r.Dft.Derate.effective r.Dft.Derate.samples
                  (100.0 *. r.Dft.Derate.model.Dft.Derate.confidence));
            print_string (P.render_text plan);
            if diags <> [] then print_string (A.Diagnostic.render_text diags)
          end;
          (match json with
          | None | Some "-" -> ()
          | Some path ->
              P.write_json ~path plan;
              Printf.printf "wrote %s\n" path);
          let over_budget =
            match budget with
            | Some b when plan.P.area_overhead > b ->
                Printf.printf "area overhead %.1f%% exceeds the budget %.1f%%\n"
                  (100.0 *. plan.P.area_overhead) (100.0 *. b);
                true
            | _ -> false
          in
          if over_budget || A.Lint.fails ~fail_on:A.Diagnostic.Error diags then 1 else 0
  in
  let run file scenario stages bits limit derate samples seed budget json jobs trace metrics
      events =
    apply_jobs jobs;
    let code =
      with_telemetry ~events ~trace ~metrics @@ fun () ->
      with_run_events ~kind:"plan" @@ fun () ->
      plan_code file scenario stages bits limit derate samples seed budget json
    in
    if code <> 0 then exit code
  in
  let doc =
    "Optimize detector placement: full-coverage sensor groups under the (optionally \
     process-derated) sharing limit, depth-balanced to minimise read-out area, with \
     COP/SCOAP hardest-net ranking and a machine-readable plan."
  in
  let info = Cmd.info "plan" ~doc in
  Cmd.v info
    Term.(const run $ file_arg $ scenario_arg $ stages_arg $ bits_arg $ limit_arg
          $ derate_arg $ samples_arg $ seed_arg $ budget_arg $ json_arg $ jobs_arg
          $ trace_arg $ metrics_arg $ events_arg)

(* ------------------------------------------------------------------ *)
(* watch: live in-place terminal view of a run-event stream *)

let watch_cmd =
  let module Ev = Cml_telemetry.Events in
  let file_arg =
    let doc = "Event stream to follow (JSONL from $(b,--events)); $(b,-) reads stdin." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"EVENTS.jsonl" ~doc)
  in
  let once_arg =
    let doc = "Render the stream's final state once and exit (no polling, no redraw)." in
    Arg.(value & flag & info [ "once" ] ~doc)
  in
  let read_stdin () =
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b stdin 4096
       done
     with End_of_file -> ());
    Buffer.contents b
  in
  (* Read whatever the file holds right now, dropping a trailing
     partial line (the writer flushes whole lines, but a poll can
     still catch one mid-write) and tolerating lines that fail to
     parse for the same reason. *)
  let snapshot_docs path =
    match open_in_bin path with
    | exception Sys_error _ -> None
    | ic ->
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        close_in ic;
        let lines = String.split_on_char '\n' text in
        let rec complete = function [] | [ _ ] -> [] | l :: rest -> l :: complete rest in
        Some
          (List.filter_map
             (fun l ->
               let l = String.trim l in
               if l = "" then None
               else
                 match Cml_telemetry.Json.parse l with
                 | j -> Some j
                 | exception Cml_telemetry.Json.Parse_error _ -> None)
             (complete lines))
  in
  let count_lines s =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s
  in
  let live path =
    let last = ref "" in
    let last_lines = ref 0 in
    let redraw st =
      let s = Ev.render_state st in
      if s <> !last then begin
        (* move back over the previous frame and clear to the end, so
           the view updates in place instead of scrolling *)
        if !last_lines > 0 then Printf.printf "\027[%dA\027[J" !last_lines;
        print_string s;
        flush stdout;
        last := s;
        last_lines := count_lines s
      end
    in
    let rec loop () =
      match snapshot_docs path with
      | None ->
          (* stream not created yet: keep waiting for the run *)
          Unix.sleepf 0.2;
          loop ()
      | Some docs ->
          let st = Ev.state_of_events docs in
          redraw st;
          if not st.Ev.w_finished then begin
            Unix.sleepf 0.2;
            loop ()
          end
    in
    loop ()
  in
  let run path once =
    if once then
      let docs =
        if path = "-" then Ev.read_string (read_stdin ())
        else
          match snapshot_docs path with
          | Some docs -> docs
          | None ->
              Printf.eprintf "cmldft watch: cannot read %s\n" path;
              exit 2
      in
      print_string (Ev.render_state (Ev.state_of_events docs))
    else if path = "-" then begin
      Printf.eprintf "cmldft watch: live mode needs a file (use --once to read stdin)\n";
      exit 2
    end
    else live path
  in
  let doc =
    "Follow a run-event stream ($(b,cml-dft-events/1), written by $(b,--events)) as a live \
     in-place terminal view: progress bar with ETA, per-domain lanes, classification and \
     healing histograms so far, utilization table at the end."
  in
  let info = Cmd.info "watch" ~doc in
  Cmd.v info Term.(const run $ file_arg $ once_arg)

(* ------------------------------------------------------------------ *)
(* explain: numerical post-mortem of one campaign variant *)

let explain_cmd =
  let module Tel = Cml_telemetry in
  let file_arg =
    let doc =
      "Finished campaign to explain: a run manifest (from $(b,--manifest)) or a run-events \
       JSONL stream (from $(b,--events))."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let variant_arg =
    let doc = "Explain the variant at this 0-based run index." in
    Arg.(value & opt (some int) None & info [ "variant" ] ~docv:"N" ~doc)
  in
  let defect_arg =
    let doc =
      "Explain the first variant whose name contains $(docv) (case-insensitive), e.g. \
       $(b,--defect 'c-e short')."
    in
    Arg.(value & opt (some string) None & info [ "defect" ] ~docv:"SITE" ~doc)
  in
  let json_arg =
    let doc =
      "Write the post-mortem document (schema $(b,cml-dft-postmortem/1)) to this file, \
       renderable later by $(b,cmldft report); $(b,-) writes the JSON to stdout."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let top_arg =
    Arg.(value & opt int 8 & info [ "top" ] ~docv:"N" ~doc:"Rows per blame/hotspot table.")
  in
  let run file variant defect json top jobs events trace metrics =
    apply_jobs jobs;
    with_telemetry ~events ~trace ~metrics @@ fun () ->
    with_run_events ~kind:"explain" @@ fun () ->
    let selection =
      match (variant, defect) with
      | Some _, Some _ ->
          Printf.eprintf "cmldft explain: --variant and --defect are mutually exclusive\n";
          exit 2
      | Some n, None -> Dft.Explain.Nth n
      | None, Some s -> Dft.Explain.Named s
      | None, None -> Dft.Explain.Auto
    in
    match Dft.Explain.explain_path ~top ~selection file with
    | pm -> (
        match json with
        | None -> print_string (Tel.Postmortem.render_text pm)
        | Some "-" -> print_endline (Tel.Json.to_string (Tel.Postmortem.to_json pm))
        | Some path ->
            Tel.Postmortem.write ~path pm;
            Printf.printf "wrote %s (%s)\n" path pm.Tel.Postmortem.pm_variant)
    | exception Dft.Explain.Unexplainable msg ->
        Printf.eprintf "cmldft explain: %s\n" msg;
        exit 2
    | exception Sys_error msg ->
        Printf.eprintf "cmldft explain: %s\n" msg;
        exit 2
    | exception Tel.Json.Parse_error (pos, msg) ->
        Printf.eprintf "cmldft explain: %s: JSON error at offset %d: %s\n" file pos msg;
        exit 2
  in
  let doc =
    "Numerical post-mortem of one campaign variant: pick the slowest or failed variant (or \
     $(b,--variant)/$(b,--defect)), re-simulate it on the netlist the campaign measured it \
     on (the whole chain or $(b,.bench) design, the defect's fanout cone or the cone's cut) \
     with solver introspection attached, and \
     report the convergence narrative, worst-net/worst-device hotspots, per-rejection LTE \
     blame, Newton retry blame, the dt timeline and the sparse-LU health summary."
  in
  let info = Cmd.info "explain" ~doc in
  Cmd.v info
    Term.(const run $ file_arg $ variant_arg $ defect_arg $ json_arg $ top_arg $ jobs_arg
          $ events_arg $ trace_arg $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* report: render manifests / metrics files for humans *)

let report_cmd =
  let module Tel = Cml_telemetry in
  let files_arg =
    let doc =
      "Files to report on: run manifests (from $(b,--manifest)) or metrics snapshots \
       (from $(b,--metrics))."
    in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let top_arg =
    Arg.(value & opt int 5 & info [ "top" ] ~docv:"N" ~doc:"Slowest variants to list.")
  in
  let trend_arg =
    let doc =
      "Cross-run trend analysis: classify the given files (and the $(b,.json) files of any \
       given directory) into perf histories ($(b,cml-dft-perf)) and run manifests, then \
       render per-kernel trajectory sparklines with regression flags, the campaign scaling \
       probe against its best-matching (jobs, cores) history, and wall-clock attribution \
       by span group."
    in
    Arg.(value & flag & info [ "trend" ] ~doc)
  in
  let read_stdin () =
    let b = Buffer.create 4096 in
    (try
       while true do
         Buffer.add_channel b stdin 4096
       done
     with End_of_file -> ());
    Buffer.contents b
  in
  let parse_path path =
    if path = "-" then Tel.Json.parse (read_stdin ()) else Tel.Json.parse_file path
  in
  let report_one ~top path =
    let j = parse_path path in
    match Tel.Manifest.of_json j with
    | m -> print_string (Tel.Manifest.render_text ~top m)
    | exception Tel.Manifest.Bad_manifest _ -> (
        (* not a manifest: a post-mortem, a diagnosis record, then a
           bare metrics snapshot *)
        match Tel.Postmortem.of_json j with
        | pm -> print_string (Tel.Postmortem.render_text pm)
        | exception Tel.Postmortem.Bad_postmortem _ -> (
            match Dft.Diagnose.of_json j with
            | d -> print_string (Dft.Diagnose.render_text d)
            | exception Dft.Diagnose.Bad_diagnosis _ -> (
                match Dft.Placement.of_json j with
                | p -> print_string (Dft.Placement.render_text p)
                | exception Dft.Placement.Bad_plan _ ->
                    let snap = Tel.Metrics.of_json j in
                    if snap = [] then
                      failwith
                        "not a run manifest, post-mortem, diagnosis record, placement plan \
                         or metrics snapshot"
                    else begin
                      Printf.printf "metrics snapshot: %s\n" path;
                      print_string (Tel.Metrics.render_text snap)
                    end)))
  in
  let report_trend files =
    let fail = ref false in
    let expand path =
      if path <> "-" && Sys.file_exists path && Sys.is_directory path then
        Sys.readdir path |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".json")
        |> List.sort compare
        |> List.map (Filename.concat path)
      else [ path ]
    in
    let history = ref [] and manifests = ref [] in
    List.iter
      (fun path ->
        match parse_path path with
        | exception Tel.Json.Parse_error (pos, msg) ->
            Printf.eprintf "cmldft report: %s: JSON error at offset %d: %s\n" path pos msg;
            fail := true
        | exception Sys_error msg ->
            Printf.eprintf "cmldft report: %s\n" msg;
            fail := true
        | j -> (
            match Tel.Trend.history_of_json j with
            | _ :: _ as entries -> history := !history @ entries
            | [] -> (
                match Tel.Manifest.of_json j with
                | m -> manifests := !manifests @ [ (path, m) ]
                | exception Tel.Manifest.Bad_manifest _ ->
                    (* not trend material (a plan, a metrics snapshot):
                       skip quietly so globs stay convenient *)
                    ())))
      (List.concat_map expand files);
    print_string (Tel.Trend.render ~history:!history ~manifests:!manifests ());
    if !fail then exit 2
  in
  let run files top trend =
    if trend then report_trend files
    else begin
      let fail = ref false in
      List.iteri
        (fun i path ->
          if i > 0 then print_newline ();
          match report_one ~top path with
          | () -> ()
          | exception Tel.Json.Parse_error (pos, msg) ->
              Printf.eprintf "cmldft report: %s: JSON error at offset %d: %s\n" path pos msg;
              fail := true
          | exception (Sys_error msg | Failure msg) ->
              Printf.eprintf "cmldft report: %s: %s\n" path msg;
              fail := true)
        files;
      if !fail then exit 2
    end
  in
  let doc = "Render run manifests and metrics snapshots (classification histogram, slowest \
             variants, histogram percentiles, span summary); $(b,-) reads from stdin.  \
             With $(b,--trend), cross-run trajectory analysis instead." in
  let info = Cmd.info "report" ~doc in
  Cmd.v info Term.(const run $ files_arg $ top_arg $ trend_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "reproduction of 'DFT Method for CML Digital Circuits' (DATE 1999)" in
  let info = Cmd.info "cmldft" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      chain_cmd; detector_cmd; sharing_cmd; campaign_cmd; diagnose_cmd; area_cmd; mc_cmd;
      logic_cmd; export_cmd; op_cmd; lint_cmd; plan_cmd; watch_cmd; report_cmd; explain_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
