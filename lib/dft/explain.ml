(* The post-mortem pipeline behind `cmldft explain`: pick one variant
   out of a finished campaign (run manifest or run-events stream),
   rebuild its faulty netlist from the recorded options, re-simulate
   it with a solver-introspection recorder attached and distil the
   recording into a Cml_telemetry.Postmortem document.

   The re-simulation is deliberately scalar and single-threaded — the
   whole document is a pure function of the source manifest, so the
   same input explains to byte-identical JSON at any --jobs. *)

module E = Cml_spice.Engine
module T = Cml_spice.Transient
module I = Cml_spice.Introspect
module N = Cml_spice.Netlist
module J = Cml_telemetry.Json
module M = Cml_telemetry.Manifest
module PM = Cml_telemetry.Postmortem

type selection = Auto | Nth of int | Named of string

exception Unexplainable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unexplainable s)) fmt

(* ------------------------------------------------------------------ *)
(* Source loading: a run manifest, or an events JSONL stream condensed
   into a pseudo-manifest (kind + options from run_start, variants
   from the variant_done events). *)

let manifest_of_events path =
  let events = Cml_telemetry.Events.read_file path in
  let str j key ~default =
    match J.member key j with
    | Some v -> Option.value ~default (J.to_str v)
    | None -> default
  in
  let num j key ~default =
    match J.member key j with
    | Some v -> Option.value ~default (J.to_float v)
    | None -> default
  in
  let kind = ref "" and options = ref [] and variants = ref [] in
  List.iter
    (fun j ->
      match str j "ev" ~default:"" with
      | "run_start" ->
          kind := str j "kind" ~default:"";
          options :=
            (match J.member "options" j with
            | Some (J.Obj kvs) ->
                List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (J.to_str v)) kvs
            | _ -> [])
      | "variant_done" ->
          let seconds =
            match J.member "timing" j with Some t -> num t "seconds" ~default:0.0 | None -> 0.0
          in
          let classes =
            match J.member "classes" j with
            | Some (J.List vs) -> List.filter_map J.to_str vs
            | _ -> []
          in
          variants :=
            {
              M.v_name = str j "name" ~default:"?";
              v_classes = classes;
              v_seconds = seconds;
              v_metrics = [ ("accepted_steps", num j "accepted_steps" ~default:0.0) ];
            }
            :: !variants
      | _ -> ())
    events;
  if !kind = "" then fail "%s: no run_start event — not a cml-dft-events stream" path;
  (* the pseudo-manifest must stay a pure function of the stream:
     override the creation stamp M.create would mint *)
  let m = M.create ~options:!options ~variants:(List.rev !variants) ~kind:!kind () in
  { m with M.created = "events stream"; git = "unknown" }

let load_source path =
  match M.read ~path with
  | m -> m
  | exception (M.Bad_manifest _ | J.Parse_error _) -> (
      try manifest_of_events path
      with J.Parse_error _ | M.Bad_manifest _ ->
        fail "%s: neither a run manifest nor a run-events stream" path)

(* ------------------------------------------------------------------ *)
(* Variant selection *)

let contains ~needle hay =
  let hay = String.lowercase_ascii hay and needle = String.lowercase_ascii needle in
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let select ~selection m =
  let variants = m.M.variants in
  if variants = [] then fail "the source records no variants to explain";
  match selection with
  | Nth n -> (
      match List.nth_opt variants n with
      | Some v -> (v, Printf.sprintf "--variant %d" n)
      | None -> fail "--variant %d is out of range (%d variants)" n (List.length variants))
  | Named s -> (
      match List.find_opt (fun v -> contains ~needle:s v.M.v_name) variants with
      | Some v -> (v, Printf.sprintf "--defect match %S" s)
      | None -> fail "no variant name matches %S" s)
  | Auto -> (
      match List.find_opt (fun v -> List.mem "failed" v.M.v_classes) variants with
      | Some v -> (v, "first failed variant")
      | None -> (
          (* the hardest variant by a deterministic measure — the
             recorded Newton effort — so the pick does not depend on
             wall-clock noise; the earliest variant wins a tie *)
          let most key =
            List.fold_left (fun a v -> if key v > key a then v else a) (List.hd variants) variants
          in
          let iters v = List.assoc_opt "newton_iters" v.M.v_metrics in
          if List.exists (fun v -> iters v <> None) variants then
            let v = most iters in
            (v, Printf.sprintf "most Newton iterations (%.0f)" (Option.get (iters v)))
          else
            let v = most (fun v -> v.M.v_seconds) in
            (v, Printf.sprintf "slowest variant (%.3g s)" v.M.v_seconds)))

(* ------------------------------------------------------------------ *)
(* Rebuilding the variant's circuit from the manifest options *)

let req_option m key =
  match List.assoc_opt key m.M.options with
  | Some s -> s
  | None -> fail "the source options carry no %S — cannot rebuild the circuit" key

let req_float m key =
  let s = req_option m key in
  match float_of_string_opt s with
  | Some v -> v
  | None -> fail "option %S = %S is not a number" key s

(* Pipe resistances are not in the options; harvest them back from the
   variant names ("C-E pipe (4 kohm) on x3.q3") so Sites.enumerate
   regenerates the exact candidate list the campaign ran. *)
let pipe_values m =
  let one v =
    match Scanf.sscanf v.M.v_name "C-E pipe (%g kohm)" (fun r -> r) with
    | r -> Some (r *. 1e3)
    | exception _ -> None
  in
  match List.sort_uniq compare (List.filter_map one m.M.variants) with
  | [] -> [ 4e3 ]
  | vs -> vs

(* ------------------------------------------------------------------ *)
(* Attribution helpers *)

(* Branch-current unknowns, labelled by the voltage source / VCVS that
   owns them — "i(vdd)" reads a lot better in a blame table than
   "branch[2]". *)
let branch_names sim net =
  let tbl = Hashtbl.create 8 in
  N.iter_devices net (fun d ->
      match d with
      | N.Vsource { name; _ } | N.Vcvs { name; _ } -> (
          match E.branch_unknown sim name with
          | i -> Hashtbl.replace tbl i ("i(" ^ name ^ ")")
          | exception Not_found -> ())
      | _ -> ());
  tbl

let unknown_name sim net =
  let branches = branch_names sim net in
  fun i ->
    if i < 0 then "gnd"
    else if i < E.node_unknowns sim then N.node_name net (i + 1)
    else
      match Hashtbl.find_opt branches i with
      | Some s -> s
      | None -> Printf.sprintf "branch[%d]" (i - E.node_unknowns sim)

(* Aggregate (index, severity) events into hotspot rows: count of
   times-worst plus the worst severity seen, ordered by count, then
   severity, then name — a total order, so the table is deterministic
   whatever Hashtbl iteration does. *)
let hotspots ~top ~name rows =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (i, sev) ->
      if i >= 0 then
        let c, w = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl i) in
        Hashtbl.replace tbl i (c + 1, Float.max w sev))
    rows;
  let all = Hashtbl.fold (fun i (c, w) acc -> (name i, c, w) :: acc) tbl [] in
  let all =
    List.sort
      (fun (n1, c1, w1) (n2, c2, w2) ->
        match compare c2 c1 with
        | 0 -> ( match compare w2 w1 with 0 -> compare n1 n2 | k -> k)
        | k -> k)
      all
  in
  List.filteri (fun k _ -> k < top) all
  |> List.map (fun (n, c, w) -> { PM.h_name = n; h_count = c; h_worst = w })

let take n xs = List.filteri (fun i _ -> i < n) xs

(* Thin a timeline to at most [n] evenly strided points (always keeps
   the first point). *)
let decimate n xs =
  let len = List.length xs in
  if len <= n then xs
  else
    let stride = (len + n - 1) / n in
    List.filteri (fun i _ -> i mod stride = 0) xs

(* ------------------------------------------------------------------ *)
(* The pipeline *)

let dt_point_budget = 120

let explain ?(top = 8) ?(selection = Auto) ~source m =
  if m.M.kind <> "campaign" then
    fail "run kind %S: explain can only re-simulate campaign runs" m.M.kind;
  if List.mem_assoc "bench" m.M.options then
    fail
      "compiled-design campaign (a \"bench\" option is present): explain can only rebuild the \
       built-in buffer chain";
  let variant, why = select ~selection m in
  let freq = req_float m "freq" in
  let tstop = req_float m "tstop" in
  let stages = int_of_float (req_float m "stages") in
  let dut = int_of_float (req_float m "dut") in
  let warm_start = req_option m "warm_start" <> "false" in
  (* honour the campaign's Newton-iteration cap, if it ran with one —
     the re-simulation must fail exactly where the original did *)
  let engine_options =
    match List.assoc_opt "max_iter" m.M.options with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> Some { E.default_options with E.max_iter = n }
        | None -> fail "option \"max_iter\" = %S is not an integer" s)
  in
  let chain = Cml_cells.Chain.build ~stages ~freq () in
  let golden = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net in
  let prefix = Cml_cells.Chain.stage_name dut in
  let candidates = Cml_defects.Sites.enumerate ~pipe_values:(pipe_values m) golden ~prefix in
  let defect =
    match
      List.find_opt (fun d -> Cml_defects.Defect.describe d = variant.M.v_name) candidates
    with
    | Some d -> d
    | None -> fail "variant %S matches no defect site of stage %s" variant.M.v_name prefix
  in
  let breakpoints = T.collect_breakpoints golden ~tstop in
  let reference =
    let sim0 = E.compile ?options:engine_options golden in
    T.run ~breakpoints sim0 golden (T.config ~tstop ~max_step:10e-12 ())
  in
  (* replay on the netlist the campaign measured the variant on: its
     fanout cone when the campaign routed it there and kept the cone
     result, else the whole chain.  Either way the warm start is the
     campaign's: the fault-free trajectory (projected onto the cone)
     seeds the variant's DC solve and rescues diverging steps. *)
  let net, guide =
    match Cml_defects.Cone.plan golden ~reference [ defect ] defect with
    | Some cone when List.assoc_opt "fallback" variant.M.v_metrics <> Some 1.0 ->
        (Cml_defects.Cone.netlist cone, Cml_defects.Cone.guide cone)
    | Some _ | None -> (golden, reference)
  in
  let guide = if warm_start then Some guide else None in
  let faulty =
    match Cml_defects.Inject.apply net defect with
    | f -> f
    | exception (Not_found | Invalid_argument _) ->
        fail "defect %S no longer injects into the rebuilt chain" variant.M.v_name
  in
  let sim = E.compile ?options:engine_options faulty in
  let recorder = I.create ~label:variant.M.v_name () in
  E.set_introspect sim (Some recorder);
  let cfg = T.config ~tstop ~max_step:10e-12 ~record_every:0 () in
  let outcome, tstats =
    match T.run ?guide ~breakpoints sim faulty cfg with
    | r -> ("completed", Some r.T.stats)
    | exception E.No_convergence msg -> ("failed: " ^ msg, None)
  in
  (* ---- distil the recording ---- *)
  let net_name = unknown_name sim faulty in
  let nrows = I.newton_rows recorder in
  let worst_nets =
    hotspots ~top ~name:net_name
      (List.map (fun (r : I.newton_row) -> (r.I.nr_worst, r.I.nr_delta)) nrows)
  in
  let worst_devices =
    hotspots ~top
      ~name:(fun di -> E.device_label sim di)
      (List.map (fun (r : I.newton_row) -> (r.I.nr_jworst, r.I.nr_jerr)) nrows)
  in
  let lte_sorted =
    List.sort
      (fun (a : I.lte_row) (b : I.lte_row) ->
        match compare b.I.lr_ratio a.I.lr_ratio with
        | 0 -> compare a.I.lr_time b.I.lr_time
        | k -> k)
      (I.lte_rows recorder)
  in
  let lte =
    take top
      (List.map
         (fun (r : I.lte_row) ->
           {
             PM.l_time = r.I.lr_time;
             l_h = r.I.lr_h;
             l_node = net_name r.I.lr_worst;
             l_ratio = r.I.lr_ratio;
             l_cascade = r.I.lr_cascade;
           })
         lte_sorted)
  in
  let retries =
    take top
      (List.map
         (fun (r : I.fail_row) ->
           {
             PM.r_time = r.I.fr_time;
             r_net = (if r.I.fr_worst < 0 then "(no recorded iteration)" else net_name r.I.fr_worst);
             r_delta = r.I.fr_delta;
           })
         (I.fail_rows recorder))
  in
  let dt_rows = I.dt_rows recorder in
  let dt_kept = decimate dt_point_budget dt_rows in
  let dt_causes =
    List.filter_map
      (fun c ->
        match List.length (List.filter (fun (r : I.dt_row) -> r.I.dr_cause = c) dt_rows) with
        | 0 -> None
        | n -> Some (I.cause_name c, n))
      [ I.cause_accept; I.cause_breakpoint; I.cause_guide; I.cause_lte; I.cause_newton_fail ]
  in
  let ss = E.solver_stats sim in
  let newton_failures = I.newton_failures recorder in
  let stats =
    (match tstats with
    | None -> []
    | Some (s : T.stats) ->
        [
          ("accepted_steps", float_of_int s.T.accepted_steps);
          ("rejected_steps", float_of_int s.T.rejected_steps);
          ("lte_rejections", float_of_int s.T.lte_rejections);
          ("newton_iters", float_of_int s.T.newton_iters);
          ("guided_seeds", float_of_int s.T.guided_seeds);
          ("cold_fallbacks", float_of_int s.T.cold_fallbacks);
        ])
    @ [
        ("newton_failures", float_of_int newton_failures);
        ("diode_loads", float_of_int ss.E.diode_loads);
        ("diode_bypassed", float_of_int ss.E.diode_bypassed);
        ("bjt_loads", float_of_int ss.E.bjt_loads);
        ("bjt_bypassed", float_of_int ss.E.bjt_bypassed);
      ]
  in
  let fb_small, fb_unstable, fb_pattern = I.lu_fallbacks recorder in
  let lu =
    if ss.E.lu_nnz_factors = 0 then []
    else
      [
        ("pivot_growth", ss.E.lu_pivot_growth);
        ("condition_estimate", ss.E.lu_condition);
        ("fill_nnz", float_of_int ss.E.lu_nnz_factors);
        ("fill_ratio", ss.E.lu_fill_ratio);
        ("fallback_small_pivot", float_of_int fb_small);
        ("fallback_unstable_pivot", float_of_int fb_unstable);
        ("fallback_pattern_mismatch", float_of_int fb_pattern);
      ]
  in
  (* ---- narrative ---- *)
  let lines = ref [] in
  let add fmt = Printf.ksprintf (fun s -> lines := s :: !lines) fmt in
  (match tstats with
  | Some s ->
      add "Re-simulated to completion: %d accepted steps, %d rejected (%d LTE, %d Newton)."
        s.T.accepted_steps s.T.rejected_steps s.T.lte_rejections
        (s.T.rejected_steps - s.T.lte_rejections)
  | None -> add "Re-simulation diverged — %s." outcome);
  (match lte with
  | l :: _ ->
      add "LTE pressure concentrates on %s (worst ratio %.1fx tolerance at t = %.4g s, deepest cascade %d)."
        l.PM.l_node l.PM.l_ratio l.PM.l_time
        (List.fold_left (fun a (r : I.lte_row) -> max a r.I.lr_cascade) 0 lte_sorted)
  | [] -> ());
  (match worst_nets with
  | h :: _ ->
      add "Newton effort concentrates on %s (worst mover in %d of %d recorded iterations)."
        h.PM.h_name h.PM.h_count (List.length nrows)
  | [] -> ());
  (match worst_devices with
  | h :: _ ->
      add "Junction limiting is dominated by %s (%d times, worst error %.3g V)." h.PM.h_name
        h.PM.h_count h.PM.h_worst
  | [] -> ());
  if newton_failures > 0 then
    add "Newton gave up %d time(s)%s." newton_failures
      (match retries with r :: _ -> Printf.sprintf "; the first failure blamed %s" r.PM.r_net | [] -> "");
  (match tstats with
  | Some s when s.T.guided_seeds > 0 || s.T.cold_fallbacks > 0 ->
      add "The warm-start guide rescued %d solve(s); %d fell back to cold seeding."
        s.T.guided_seeds s.T.cold_fallbacks
  | _ -> ());
  if fb_small + fb_unstable + fb_pattern > 0 then
    add "LU stability fallbacks: %d small-pivot, %d unstable-pivot, %d pattern-mismatch."
      fb_small fb_unstable fb_pattern
  else if ss.E.lu_nnz_factors > 0 then
    add "LU stayed stable: pivot growth %.3g, condition estimate %.3g." ss.E.lu_pivot_growth
      ss.E.lu_condition;
  {
    PM.pm_variant = variant.M.v_name;
    pm_classes = variant.M.v_classes;
    pm_selection = why;
    pm_source = source;
    pm_git = m.M.git;
    pm_created = m.M.created;
    pm_options = m.M.options;
    pm_outcome = outcome;
    pm_narrative = List.rev !lines;
    pm_stats = stats;
    pm_worst_nets = worst_nets;
    pm_worst_devices = worst_devices;
    pm_lte = lte;
    pm_retries = retries;
    pm_dt_times = List.map (fun (r : I.dt_row) -> r.I.dr_t) dt_kept;
    pm_dt_steps = List.map (fun (r : I.dt_row) -> r.I.dr_h) dt_kept;
    pm_dt_causes = dt_causes;
    pm_lu = lu;
  }

let explain_path ?top ?selection path = explain ?top ?selection ~source:path (load_source path)
