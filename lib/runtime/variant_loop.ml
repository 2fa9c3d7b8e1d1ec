module Tel = Cml_telemetry

type window = { snap0 : Tel.Metrics.snapshot; span : int64 }

let start () =
  let snap0 = Tel.Metrics.snapshot () in
  { snap0; span = Tel.Trace.start () }

type report = {
  classes : string list;
  metrics : (string * float) list;
  healing : string option;
  failed : bool;
  steps : int;
}

type 'b t = {
  results : 'b array;
  variants : Tel.Manifest.variant list;
  metrics : Tel.Metrics.snapshot;
  utilization : Tel.Events.domain_util list;
  wall_s : float;
}

let seconds_since t0 = Tel.Clock.ns_to_s (Int64.sub (Tel.Clock.now_ns ()) t0)

let run w ~kind ~item ?jobs ?max_batch ~options ~name ~slice xs =
  let m_items = Tel.Metrics.counter (Printf.sprintf "%s.%ss" kind item) in
  let m_seconds = Tel.Metrics.histogram (Printf.sprintf "%s.%s_seconds" kind item) in
  let ev_run = Tel.Events.run_start ~kind ~total:(Array.length xs) ?jobs ~options () in
  let util0 = Pool.utilization () in
  Pool.reset_stall_watermarks ();
  let wall_t0 = Tel.Clock.now_ns () in
  let run_slice indexed =
    let work = slice () in
    Array.map
      (fun (idx, x) ->
        let label = name x in
        Tel.Progress.variant_start label;
        let tok = Tel.Trace.start () in
        let t0 = Tel.Clock.now_ns () in
        let y, r = work x in
        let seconds = seconds_since t0 in
        Tel.Metrics.incr m_items;
        Tel.Metrics.observe m_seconds seconds;
        Tel.Trace.finish ~cat:kind
          ~args:(if tok >= 0L then [ (item, Tel.Trace.S label) ] else [])
          item tok;
        Tel.Progress.variant_finish ~failed:r.failed;
        Tel.Events.variant_done ev_run
          {
            Tel.Events.ev_idx = idx;
            ev_name = label;
            ev_classes = r.classes;
            ev_healing = r.healing;
            ev_failed = r.failed;
            ev_steps = r.steps;
            ev_seconds = seconds;
          };
        ( y,
          {
            Tel.Manifest.v_name = label;
            v_classes = r.classes;
            v_seconds = seconds;
            v_metrics = r.metrics;
          } ))
      indexed
  in
  let out = Pool.parallel_map_batches ?jobs ?max_batch run_slice (Array.mapi (fun i x -> (i, x)) xs) in
  Tel.Trace.finish ~cat:kind kind w.span;
  let wall_s = seconds_since wall_t0 in
  let utilization =
    List.map
      (fun (dom, (d : Pool.domain_stats)) ->
        Tel.Events.util_row ~wall_s ~domain:dom ~busy_ns:d.Pool.busy_ns ~items:d.Pool.items
          ~longest_stall_ns:d.Pool.longest_stall_ns)
      (Pool.utilization_since util0)
  in
  let metrics = Tel.Metrics.diff w.snap0 (Tel.Metrics.snapshot ()) in
  let variants = Array.to_list (Array.map snd out) in
  Tel.Events.finish ev_run ~classes:(Tel.Manifest.class_counts variants) ~wall_s ~utilization;
  { results = Array.map fst out; variants; metrics; utilization; wall_s }
