(* Tests of the telemetry layer: span recording and ordering (a qcheck
   property over random span trees), trace-merge determinism across
   parallel campaign runs, metrics-registry parity between warm- and
   cold-started transients, and a golden Chrome-trace fixture. *)

module Trace = Cml_telemetry.Trace
module Metrics = Cml_telemetry.Metrics
module Json = Cml_telemetry.Json
module E = Cml_spice.Engine
module T = Cml_spice.Transient

let with_tracing f =
  Trace.set_enabled true;
  ignore (Trace.drain ());
  Fun.protect
    ~finally:(fun () ->
      ignore (Trace.drain ());
      Trace.set_enabled false)
    f

(* ------------------------------------------------------------------ *)
(* qcheck: recording a random tree of nested spans yields one event
   per node, drained in timestamp order, with intervals that nest or
   are disjoint — never partially overlapping. *)

type tree = Node of int * tree list

let gen_tree =
  let open QCheck2.Gen in
  sized
  @@ fix (fun self n ->
         let children =
           if n <= 0 then pure [] else list_size (int_range 0 3) (self (n / 2))
         in
         map2 (fun i cs -> Node (i, cs)) (int_range 0 999) children)

let rec record_tree (Node (id, children)) =
  let tok = Trace.start () in
  List.iter record_tree children;
  Trace.finish ~cat:"test" (Printf.sprintf "span%d" id) tok

let rec count_nodes (Node (_, cs)) = List.fold_left (fun a c -> a + count_nodes c) 1 cs

let span_interval ev =
  match ev.Trace.ph with
  | Trace.Complete dur -> (ev.Trace.ts, Int64.add ev.Trace.ts dur)
  | Trace.Instant -> (ev.Trace.ts, ev.Trace.ts)

let prop_span_nesting =
  QCheck2.Test.make ~name:"span trees drain ordered and properly nested" ~count:60 gen_tree
    (fun tree ->
      with_tracing @@ fun () ->
      record_tree tree;
      let evs = Trace.drain () in
      let n = List.length evs in
      if n <> count_nodes tree then false
      else
        let arr = Array.of_list evs in
        let sorted = ref true and nested = ref true in
        for i = 0 to n - 2 do
          if Trace.((arr.(i)).ts > (arr.(i + 1)).ts) then sorted := false
        done;
        for i = 0 to n - 1 do
          for j = i + 1 to n - 1 do
            let s1, e1 = span_interval arr.(i) and s2, e2 = span_interval arr.(j) in
            (* partial overlap: starts strictly inside [i] but ends
               strictly after it (ties from clock granularity pass) *)
            if s2 > s1 && s2 < e1 && e2 > e1 then nested := false
          done
        done;
        !sorted && !nested)

(* ------------------------------------------------------------------ *)
(* parallel campaigns: the merged trace is deterministic — the same
   span population regardless of the worker-domain count, and the
   drained stream is timestamp-ordered even when several domains
   recorded concurrently. *)

let campaign_defects () =
  let golden = Cml_cells.Chain.build ~stages:3 ~freq:1e9 () in
  let all =
    Cml_defects.Sites.enumerate golden.Cml_cells.Chain.builder.Cml_cells.Builder.net
      ~prefix:"x2" ~pipe_values:[ 2e3 ]
  in
  List.filteri (fun i _ -> i < 6) all

let campaign_spans ~jobs defects =
  with_tracing @@ fun () ->
  let c = Cml_defects.Campaign.run ~stages:3 ~dut:2 ~freq:1e9 ~tstop:2e-9 ~jobs ~defects () in
  let evs = Trace.drain () in
  let arr = Array.of_list evs in
  for i = 0 to Array.length arr - 2 do
    Alcotest.(check bool) "merged stream is timestamp-ordered" true
      Trace.((arr.(i)).ts <= (arr.(i + 1)).ts)
  done;
  let counts =
    List.sort compare (List.map (fun (name, a) -> (name, a.Trace.sa_count)) (Trace.aggregate evs))
  in
  (Cml_defects.Campaign.summary c, counts)

let test_campaign_merge_determinism () =
  let defects = campaign_defects () in
  let s1, seq = campaign_spans ~jobs:1 defects in
  let s2, par = campaign_spans ~jobs:2 defects in
  let _, par' = campaign_spans ~jobs:2 defects in
  Alcotest.(check (list (pair string int))) "summaries agree" s1 s2;
  Alcotest.(check (list (pair string int))) "same span population at jobs=1 and jobs=2" seq par;
  Alcotest.(check (list (pair string int))) "parallel trace is repeatable" par par';
  Alcotest.(check bool) "campaign spans recorded" true
    (List.mem_assoc "newton_solve" par && List.assoc_opt "variant" par = Some 6)

(* ------------------------------------------------------------------ *)
(* metrics registry: a warm-started transient reports the same
   registry movement as the cold one (same trajectory), with the
   guided-seed counter only moving on the warm run, and the registry
   deltas agreeing with the per-run [T.stats]. *)

let counter_of name snap =
  match List.assoc_opt name snap with Some (Metrics.Counter n) -> n | _ -> 0

let test_metrics_warm_cold_parity () =
  let chain = Cml_cells.Chain.build ~stages:3 ~freq:1e9 () in
  let net = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let cfg = T.config ~tstop:2e-9 ~max_step:10e-12 () in
  let s0 = Metrics.snapshot () in
  let cold = T.run (E.compile net) net cfg in
  let s1 = Metrics.snapshot () in
  let warm = T.run ~guide:cold (E.compile net) net cfg in
  let s2 = Metrics.snapshot () in
  let d_cold = Metrics.diff s0 s1 and d_warm = Metrics.diff s1 s2 in
  Alcotest.(check int) "cold run counted once" 1 (counter_of "transient.runs" d_cold);
  Alcotest.(check int) "warm run counted once" 1 (counter_of "transient.runs" d_warm);
  Alcotest.(check int) "same accepted steps warm vs cold"
    (counter_of "transient.accepted_steps" d_cold)
    (counter_of "transient.accepted_steps" d_warm);
  Alcotest.(check int) "registry delta matches stats (cold)" cold.T.stats.T.accepted_steps
    (counter_of "transient.accepted_steps" d_cold);
  Alcotest.(check int) "registry delta matches stats (warm)" warm.T.stats.T.guided_seeds
    (counter_of "transient.guided_seeds" d_warm);
  Alcotest.(check int) "cold run has no guided seeds" 0
    (counter_of "transient.guided_seeds" d_cold);
  Alcotest.(check bool) "warm run used the guide" true
    (counter_of "transient.guided_seeds" d_warm > 0);
  Alcotest.(check int) "newton iters accounted (cold)" cold.T.stats.T.newton_iters
    (counter_of "solver.newton_iters" d_cold)

(* ------------------------------------------------------------------ *)
(* golden Chrome-trace fixture: deterministic events must render to
   exactly this JSON (the contract chrome://tracing / Perfetto load),
   and the streamed file form must parse back to the same document. *)

let golden_events () =
  [
    Trace.make_event ~cat:"campaign" ~tid:0 ~ts_ns:1000L ~dur_ns:4_000_000L "campaign";
    Trace.make_event ~cat:"sim"
      ~args:[ ("defect", Trace.S "pipe") ]
      ~tid:1 ~ts_ns:2000L ~dur_ns:1_500_000L "transient";
    Trace.make_event ~cat:"pool"
      ~args:[ ("total", Trace.I 8); ("active", Trace.I 2) ]
      ~tid:0 ~ts_ns:5000L "pool.batch";
  ]

let golden_string =
  "{\"traceEvents\":[\
   {\"name\":\"campaign\",\"cat\":\"campaign\",\"pid\":1,\"tid\":0,\"ts\":1,\"ph\":\"X\",\"dur\":4000},\
   {\"name\":\"transient\",\"cat\":\"sim\",\"pid\":1,\"tid\":1,\"ts\":2,\"ph\":\"X\",\"dur\":1500,\
   \"args\":{\"defect\":\"pipe\"}},\
   {\"name\":\"pool.batch\",\"cat\":\"pool\",\"pid\":1,\"tid\":0,\"ts\":5,\"ph\":\"i\",\"s\":\"t\",\
   \"args\":{\"total\":8,\"active\":2}}\
   ],\"displayTimeUnit\":\"ns\"}\n"

let test_chrome_golden () =
  let events = golden_events () in
  Alcotest.(check string) "chrome trace golden" golden_string (Trace.chrome_string events);
  let path = Filename.temp_file "cml_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write_chrome ~path events;
  let doc = Json.parse_file path in
  Alcotest.(check bool) "streamed file parses to the same document" true
    (doc = Json.parse golden_string);
  match Json.member "traceEvents" doc with
  | Some (Json.List evs) -> Alcotest.(check int) "all events present" 3 (List.length evs)
  | _ -> Alcotest.fail "traceEvents missing"

let () =
  Alcotest.run "telemetry"
    [
      ( "trace",
        [
          QCheck_alcotest.to_alcotest prop_span_nesting;
          Alcotest.test_case "chrome golden fixture" `Quick test_chrome_golden;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "parallel merge determinism" `Slow
            test_campaign_merge_determinism;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "warm vs cold snapshot parity" `Quick
            test_metrics_warm_cold_parity;
        ] );
    ]
