(* The repository benchmark.  See benchmark/README.md.

     main.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
       one workload in this process; the last line is the result object
     main.exe all [--seed N] [--seconds S] [--out DIR]
       every workload, each in its own process, merged into DIR/results.json
     main.exe trace [--seed N] [--seconds S] [--out DIR]
       every workload's traced run, writing DIR/<workload>.trace.json
     main.exe compare SET_A SET_B
       medians, quartiles and verdicts of two sets of results.json files,
       against the bounds of ./BENCHMARK.json
     main.exe --workload W --print-inputs [--reps K]
       the seeded inputs of reps 0 .. K-1 *)

open Cml_benchmark
module J = Cml_telemetry.Json

let usage =
  "usage: main.exe [all | trace | compare SET_A SET_B] [--workload W] [--seed N] [--seconds S] \
   [--trace 0|1] [--out DIR] [--smoke] [--print-inputs [--reps K]]\n\
   workloads: "
  ^ String.concat ", " (List.map Workloads.to_string Workloads.all)

(* under dune's build directory, which git already ignores *)
let default_out = "_build/benchmark_out"

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("main.exe: " ^ s); exit 2) fmt

(* Run this executable again on one workload; true when it exited 0. *)
let spawn args =
  flush stdout;
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin Unix.stdout Unix.stderr in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false

let each_workload ~trace ~seed ~seconds ~out ~smoke =
  List.for_all Fun.id
    (List.map
       (fun w ->
         spawn
           ([
              "--workload"; Workloads.to_string w; "--seed"; string_of_int seed; "--seconds";
              Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0"); "--out"; out;
            ]
           @ if smoke then [ "--smoke" ] else []))
       Workloads.all)

let merge_results ~seed ~seconds ~out =
  let path = Filename.concat out "results.json" in
  J.write_file path
    (J.Obj
       [
         ("schema", J.Str "cml-dft-benchmark/1");
         ("seed", J.Num (float_of_int seed));
         ("seconds", J.Num seconds);
         ( "workloads",
           J.List
             (List.map
                (fun w -> J.parse_file (Filename.concat out (Workloads.to_string w ^ ".json")))
                Workloads.all) );
       ]);
  Printf.printf "results written to %s\n" path

let () =
  let workload = ref None and seed = ref 1 and seconds = ref Runner.default_seconds in
  let trace = ref 0 and out = ref default_out and smoke = ref false in
  let print_inputs = ref false and reps = ref 3 in
  let anon = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "W run one workload");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ( "--seconds",
        Arg.Set_float seconds,
        Printf.sprintf "S timed seconds per workload (default %g)" Runner.default_seconds );
      ("--trace", Arg.Set_int trace, "0|1 timed run (0) or traced run (1)");
      ("--out", Arg.Set_string out, "DIR results and traces (default " ^ default_out ^ ")");
      ("--smoke", Arg.Set smoke, " tiny inputs and one timed rep, for the test suite");
      ("--print-inputs", Arg.Set print_inputs, " print the seeded inputs and exit");
      ("--reps", Arg.Set_int reps, "K reps printed by --print-inputs (default 3)");
    ]
  in
  Arg.parse (Arg.align specs) (fun a -> anon := a :: !anon) usage;
  if !seconds < 0.0 then die "--seconds must be >= 0";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  let size = if !smoke then Workloads.smoke else Workloads.full in
  let seconds = if !smoke then 0.0 else !seconds in
  let find name =
    match Workloads.of_string name with Some w -> w | None -> die "unknown workload %S\n%s" name usage
  in
  match (List.rev !anon, !workload) with
  | [], Some name when !print_inputs ->
      print_string (Workloads.dump size (find name) ~seed:!seed ~reps:!reps)
  | [], Some name ->
      let cfg = { Runner.workload = find name; size; seed = !seed; seconds; out = !out } in
      let correct = if !trace = 1 then Runner.traced cfg else Runner.timed cfg in
      exit (if correct then 0 else 1)
  | [ "all" ], None ->
      let ok = each_workload ~trace:false ~seed:!seed ~seconds ~out:!out ~smoke:!smoke in
      merge_results ~seed:!seed ~seconds ~out:!out;
      exit (if ok then 0 else 1)
  | [ "trace" ], None ->
      exit (if each_workload ~trace:true ~seed:!seed ~seconds ~out:!out ~smoke:!smoke then 0 else 1)
  | [ "compare"; a; b ], None -> (
      match Compare.run ~benchmark:"BENCHMARK.json" a b with
      | worse -> exit (if worse then 1 else 0)
      | exception (Invalid_argument msg | Sys_error msg) -> die "%s" msg
      | exception J.Parse_error (at, msg) -> die "malformed JSON at byte %d: %s" at msg)
  | _ -> die "%s" usage
