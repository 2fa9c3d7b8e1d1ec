(* Experiment harness: regenerates every table and figure of the
   paper's evaluation, printing the paper's claim next to the measured
   result.

   Usage:
     dune exec bench/main.exe                # all experiments
     dune exec bench/main.exe -- fig4        # one experiment
     dune exec bench/main.exe -- list        # available names
     dune exec bench/main.exe -- perf        # bechamel kernel benchmarks
     dune exec bench/main.exe -- --jobs 4 campaign
     dune exec bench/main.exe -- perf --json BENCH_spice.json --check
     dune exec bench/main.exe -- overhead --json BENCH_spice.json
     dune exec bench/main.exe -- --jobs 2 cone-parity

   Every check prints [ok] or [MISS]; the process exits 1 after the
   run when any check missed (`make paper` gates the paper's shape
   checks this way). *)

let experiments =
  [
    ("fig2", Analog_benches.fig2);
    ("fig4", Analog_benches.fig4);
    ("table1", Analog_benches.table1);
    ("table2", Analog_benches.table2);
    ("fig5", Analog_benches.fig5);
    ("fig7", Detector_benches.fig7);
    ("fig8", Detector_benches.fig8);
    ("fig10", Detector_benches.fig10);
    ("fig12", Detector_benches.fig12);
    ("fig14", Detector_benches.fig14);
    ("sec66", Extension_benches.sec66);
    ("montecarlo", Extension_benches.montecarlo);
    ("ablation", Extension_benches.ablation);
    ("noise-margin", Extension_benches.noise_margin);
    ("campaign", System_benches.campaign);
    ("baseline", System_benches.baseline);
    ("area", System_benches.area);
    ("toggle", System_benches.toggle);
  ]

let run_all () =
  print_endline "Reproducing: 'Design For Testability Method for CML Digital Circuits'";
  print_endline "(Antaki, Savaria, Adham, Xiong - DATE 1999)";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, f) ->
      let t = Unix.gettimeofday () in
      f ();
      Printf.printf "\n[%s done in %.1f s]\n" name (Unix.gettimeofday () -. t))
    experiments;
  Printf.printf "\nall experiments done in %.1f s\n" (Unix.gettimeofday () -. t0)

(* Options may appear anywhere on the command line:
     --jobs N / -j N   worker domains for parallel sections (0 = one
                       per core)
     --json FILE       append a machine-readable entry (perf only)
     --check           also gate the kernels on the --json history
                       (perf only): a kernel more than 25% slower than
                       in the last entry recorded on as many cores is a
                       missed check (Cml_telemetry.Trend's rule) *)
let rec parse_options json check names = function
  | [] -> (json, check, List.rev names)
  | ("--jobs" | "-j") :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 0 ->
          Cml_runtime.Pool.set_default_jobs n;
          parse_options json check names rest
      | Some _ | None ->
          Printf.eprintf "--jobs expects an integer >= 1 (or 0 for one per core), got %S\n" v;
          exit 2)
  | [ ("--jobs" | "-j") ] ->
      Printf.eprintf "--jobs expects a value\n";
      exit 2
  | "--json" :: file :: rest -> parse_options (Some file) check names rest
  | [ "--json" ] ->
      Printf.eprintf "--json expects a file name\n";
      exit 2
  | "--check" :: rest -> parse_options json true names rest
  | name :: rest -> parse_options json check (name :: names) rest

let () =
  let json, check, names = parse_options None false [] (List.tl (Array.to_list Sys.argv)) in
  (match names with
  | [] -> run_all ()
  | [ "list" ] ->
      List.iter (fun (name, _) -> print_endline name) experiments;
      print_endline "perf";
      print_endline "overhead";
      print_endline "cone-parity"
  | names ->
      List.iter
        (fun name ->
          match name with
          | "perf" -> Perf.run ?json ~check ()
          | "overhead" -> Perf.telemetry_overhead ?json ()
          | "cone-parity" -> Cone_parity.run ()
          | _ -> (
              match List.assoc_opt name experiments with
              | Some f -> f ()
              | None ->
                  Printf.eprintf "unknown experiment %S (try 'list')\n" name;
                  exit 1))
        names);
  if !Util.misses > 0 then begin
    Printf.printf "\n%d of %d checks missed\n" !Util.misses !Util.checks;
    exit 1
  end
  else if !Util.checks > 0 then Printf.printf "\nall %d checks ok\n" !Util.checks
