(* Smoke test of the benchmark: seeded inputs are deterministic, the
   percentile helper refuses thin tails, and every workload run at
   smoke size -- timed and traced -- prints each metric BENCHMARK.json
   declares with its declared unit, passes its checks, and writes a
   results.json that round-trips through the telemetry JSON reader. *)

open Cml_benchmark
module J = Cml_telemetry.Json

let main_exe = "../main.exe"
let benchmark_json = "../../BENCHMARK.json"
let out = "_smoke_out"

(* Run the benchmark; (exit code, stdout lines). *)
let run args =
  let ic = Unix.open_process_args_in main_exe (Array.of_list (main_exe :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, lines)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> (-1, lines)

let member name j = Option.get (J.member name j)
let str j = Option.get (J.to_str j)

(* Declared (name, unit) pairs of one BENCHMARK.json metric list. *)
let declared key =
  List.map
    (fun m -> (str (member "name" m), str (member "unit" m)))
    (Option.get (J.to_list (member key (J.parse_file benchmark_json))))

(* (name, unit) pairs of every result line a run printed. *)
let result_lines lines =
  List.filter_map
    (fun l ->
      if String.starts_with ~prefix:"{\"correct\"" l then
        let j = J.parse l in
        Alcotest.(check bool) "correct" true (member "correct" j = J.Bool true);
        match member "metrics" j with
        | J.Obj ms -> Some (List.map (fun (name, v) -> (name, str (member "unit" v))) ms)
        | _ -> Alcotest.fail "metrics is not an object"
      else None)
    lines

let check_run ~key args =
  let code, lines = run (args @ [ "--smoke"; "--out"; out ]) in
  Alcotest.(check int) "exit code" 0 code;
  let results = result_lines lines in
  Alcotest.(check int) "one result line per workload" (List.length Workloads.all) (List.length results);
  List.iter
    (fun printed -> Alcotest.(check (list (pair string string))) "metrics and units" (declared key) printed)
    results

let test_timed_metrics () =
  check_run ~key:"end_to_end" [ "all" ];
  let path = Filename.concat out "results.json" in
  let text = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check string) "results.json round-trips" text (J.to_string (J.parse text))

let test_traced_metrics () =
  check_run ~key:"per_layer" [ "trace" ];
  List.iter
    (fun w ->
      let path = Filename.concat out (Workloads.to_string w ^ ".trace.json") in
      Alcotest.(check bool) (path ^ " written") true (Sys.file_exists path))
    Workloads.all

let test_run_seconds () =
  Alcotest.(check (float 0.0)) "run_seconds is the default" Runner.default_seconds
    (Option.get (J.to_float (member "run_seconds" (J.parse_file benchmark_json))))

let test_inputs_deterministic () =
  List.iter
    (fun w ->
      let dump seed = Workloads.dump Workloads.full w ~seed ~reps:3 in
      Alcotest.(check string) "same seed, same inputs" (dump 1) (dump 1);
      Alcotest.(check bool) "another seed, other inputs" true (dump 1 <> dump 2))
    Workloads.all

let test_percentile_refusal () =
  let xs n = List.init n float_of_int in
  Alcotest.(check (option (float 0.0))) "99 samples: 9 beyond p90" None (Stats.percentile (xs 99) ~pct:90);
  Alcotest.(check (option (float 0.0))) "100 samples" (Some 89.0) (Stats.percentile (xs 100) ~pct:90);
  (* statistics.quantiles([1..10], n=4) *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (list (float 1e-12))) "quartiles" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ]

let () =
  Alcotest.run "benchmark"
    [
      ( "inputs",
        [
          Alcotest.test_case "seeded inputs are deterministic" `Quick test_inputs_deterministic;
          Alcotest.test_case "percentile refuses thin tails" `Quick test_percentile_refusal;
          Alcotest.test_case "run_seconds matches" `Quick test_run_seconds;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "timed run prints every end-to-end metric" `Quick test_timed_metrics;
          Alcotest.test_case "traced run prints every per-layer metric" `Quick test_traced_metrics;
        ] );
    ]
