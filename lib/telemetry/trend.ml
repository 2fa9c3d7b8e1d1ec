(* Cross-run trend analysis: `cmldft report --trend`.

   Two corpora, one view.  The BENCH_spice.json history
   (cml-dft-perf/2, written by `bench/main.exe -- perf`) carries
   per-kernel nanosecond trajectories and the campaign scaling probe;
   a directory of run manifests (cml-dft-manifest/1) carries span
   aggregates.  This module parses both with the same leniency as
   bench/perf.ml (entries missing a member are skipped, not fatal —
   the history spans schema generations) and renders: per-kernel
   sparkline trajectories with regression flags, the campaign probe
   against its best-matching (jobs, cores) history, and wall-clock
   attribution by span group across the manifests.

   The regression limits are the ones bench/perf.ml's gate uses: 1.25x
   for kernels, 1.5x for the batched-campaign kernel and the campaign
   probe (whole parallel workloads carry scheduler noise a bechamel
   best-of-N does not). *)

(* ------------------------------------------------------------------ *)
(* Sparklines *)

let spark_levels = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                      "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline values =
  match values with
  | [] -> ""
  | _ ->
      let lo = List.fold_left Float.min infinity values in
      let hi = List.fold_left Float.max neg_infinity values in
      let span = hi -. lo in
      String.concat ""
        (List.map
           (fun v ->
             let i =
               if span <= 0.0 then 3
               else min 7 (max 0 (int_of_float ((v -. lo) /. span *. 7.999)))
             in
             spark_levels.(i))
           values)

let pretty_ns ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* ------------------------------------------------------------------ *)
(* cml-dft-perf history parsing (same shapes as bench/perf.ml) *)

let history_of_json j =
  match Json.member "schema" j with
  | Some (Json.Str "cml-dft-perf/2") -> (
      match Json.member "history" j with Some (Json.List es) -> es | _ -> [])
  | Some (Json.Str "cml-dft-perf/1") -> (
      match j with
      | Json.Obj members -> [ Json.Obj (List.filter (fun (k, _) -> k <> "schema") members) ]
      | _ -> [])
  | _ -> []

let entry_kernels entry =
  match Json.member "kernels" entry with
  | Some (Json.List ks) ->
      List.filter_map
        (fun k ->
          match (Json.member "name" k, Json.member "ns_per_run" k) with
          | Some (Json.Str name), Some (Json.Num ns) -> Some (name, ns)
          | _ -> None)
        ks
  | _ -> []

let entry_setting entry =
  match (Json.member "jobs" entry, Json.member "cores" entry) with
  | Some (Json.Num j), Some (Json.Num c) -> Some (int_of_float j, int_of_float c)
  | _ -> None

let entry_campaign entry =
  match Json.member "campaign" entry with
  | Some c -> (
      match (Json.member "jobs1_s" c, Json.member "jobsN_s" c) with
      | Some (Json.Num t1), Some (Json.Num tn) -> Some (t1, tn)
      | _ -> None)
  | _ -> None

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let regression_limit = 1.25
let campaign_limit = 1.5

(* The batched-campaign kernel is a whole 8-lane workload (eight
   compiles, eight DC solves, eight transients) rather than a tight
   inner loop, so its run-to-run spread is closer to the campaign
   probe's than to the other kernels'; gate it at the campaign limit. *)
let kernel_limit name =
  if contains_sub name "batched campaign" then campaign_limit else regression_limit

type kernel_trend = {
  k_name : string;
  k_series : float list;  (* ns per run, oldest entry first *)
  k_last : float;
  k_prev : float option;
  k_regressed : bool;  (* last vs prev, at [kernel_limit] *)
}

let kernel_trends history =
  let per_entry = List.map entry_kernels history in
  let names =
    List.fold_left
      (fun acc ks ->
        List.fold_left (fun acc (name, _) -> if List.mem name acc then acc else acc @ [ name ]) acc ks)
      [] per_entry
  in
  List.map
    (fun name ->
      let series = List.filter_map (fun ks -> List.assoc_opt name ks) per_entry in
      let last = match List.rev series with v :: _ -> v | [] -> 0.0 in
      let prev = match List.rev series with _ :: v :: _ -> Some v | _ -> None in
      {
        k_name = name;
        k_series = series;
        k_last = last;
        k_prev = prev;
        k_regressed =
          (match prev with Some p -> p > 0.0 && last > kernel_limit name *. p | None -> false);
      })
    names

type campaign_trend = {
  c_jobs : int;
  c_cores : int;
  c_series : (float * float) list;  (* (jobs1_s, jobsN_s) at this setting, oldest first *)
  c_regressed : bool;
}

(* The probe's wall clock depends on worker count and host, so its
   trajectory only compares entries recorded at the latest entry's
   (jobs, cores) setting — the same best-matching-baseline rule as
   bench/perf.ml's gate. *)
let campaign_trend history =
  match List.rev history with
  | [] -> None
  | last :: _ -> (
      match entry_setting last with
      | None -> None
      | Some (jobs, cores) ->
          let matching = List.filter (fun e -> entry_setting e = Some (jobs, cores)) history in
          let series = List.filter_map entry_campaign matching in
          let regressed =
            match List.rev series with
            | (t1, tn) :: (p1, pn) :: _ ->
                (p1 > 0.0 && t1 > campaign_limit *. p1) || (pn > 0.0 && tn > campaign_limit *. pn)
            | _ -> false
          in
          Some { c_jobs = jobs; c_cores = cores; c_series = series; c_regressed = regressed })

(* ------------------------------------------------------------------ *)
(* Wall-clock attribution by span group across manifests.  Manifest
   spans are already aggregated by name; here the name is the group,
   summed across every manifest in the corpus. *)

type span_share = { g_name : string; g_count : int; g_total_s : float; g_share : float }

let span_attribution manifests =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (m : Manifest.t) ->
      List.iter
        (fun (name, (a : Trace.span_agg)) ->
          let c0, t0 = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl name) in
          Hashtbl.replace tbl name
            (c0 + a.Trace.sa_count, t0 +. Clock.ns_to_s a.Trace.sa_total_ns))
        m.Manifest.spans)
    manifests;
  let rows = Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl [] in
  let grand = List.fold_left (fun acc (_, _, t) -> acc +. t) 0.0 rows in
  let rows = List.sort (fun (_, _, a) (_, _, b) -> compare (b : float) a) rows in
  List.map
    (fun (name, count, total) ->
      {
        g_name = name;
        g_count = count;
        g_total_s = total;
        g_share = (if grand > 0.0 then total /. grand else 0.0);
      })
    rows

(* ------------------------------------------------------------------ *)
(* Rendering *)

(* a sparkline is one glyph per point but three bytes per glyph, so
   Printf's byte-counting %-12s misaligns it; pad by point count *)
let padded_spark width values =
  sparkline values ^ String.make (max 0 (width - List.length values)) ' '

let render ?(history = []) ?(manifests = []) () =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  if history = [] then begin
    line "perf history: no entries yet (a `make perf` run records the first)";
    if manifests <> [] then line ""
  end
  else begin
    line "perf history: %d entries" (List.length history);
    line "  %-44s %-12s %12s %10s" "kernel" "trend" "last" "vs prev";
    List.iter
      (fun k ->
        let delta =
          match k.k_prev with
          | Some p when p > 0.0 -> Printf.sprintf "%+.1f%%" (((k.k_last /. p) -. 1.0) *. 100.0)
          | Some _ | None -> "-"
        in
        line "  %-44s %s %12s %10s%s" k.k_name (padded_spark 12 k.k_series)
          (pretty_ns k.k_last) delta
          (if k.k_regressed then
             Printf.sprintf "  REGRESSION (limit +%.0f%%)" ((kernel_limit k.k_name -. 1.0) *. 100.0)
           else ""))
      (kernel_trends history);
    (match campaign_trend history with
    | None -> ()
    | Some c ->
        let t1s = List.map fst c.c_series and tns = List.map snd c.c_series in
        (match List.rev c.c_series with
        | [] -> line "  campaign probe: no entries at the latest (jobs, cores) setting"
        | (t1, tn) :: _ ->
            line "  campaign probe (jobs=%d, cores=%d, %d matching entries):" c.c_jobs c.c_cores
              (List.length c.c_series);
            line "    jobs=1 %s %8.3f s    jobs=N %s %8.3f s%s" (padded_spark 12 t1s) t1
              (padded_spark 12 tns) tn
              (if c.c_regressed then
                 Printf.sprintf "  REGRESSION (limit +%.0f%%)" ((campaign_limit -. 1.0) *. 100.0)
               else ""));
        ());
    if manifests <> [] then line ""
  end;
  if manifests <> [] then begin
    line "span attribution (%d manifest%s):" (List.length manifests)
      (if List.length manifests = 1 then "" else "s");
    (match span_attribution (List.map snd manifests) with
    | [] -> line "  (no spans recorded; rerun with --trace to attribute wall clock)"
    | rows ->
        line "  %-28s %10s %12s %8s" "span group" "count" "total" "share";
        List.iter
          (fun g ->
            line "  %-28s %10d %10.3f s %7.1f%%" g.g_name g.g_count g.g_total_s
              (g.g_share *. 100.0))
          rows);
    line "";
    line "  manifests:";
    List.iter
      (fun (path, (m : Manifest.t)) ->
        line "    %-40s %s run, %d variants (%s)" path m.Manifest.kind
          (List.length m.Manifest.variants) m.Manifest.created)
      manifests
  end;
  Buffer.contents b
