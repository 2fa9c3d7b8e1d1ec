(* Numerical post-mortems: one machine-readable JSON document per
   `cmldft explain` run (cml-dft-postmortem/1), recording why one
   campaign variant was slow or failed — convergence narrative,
   worst-nets / worst-devices hotspot tables, per-rejection LTE blame,
   Newton retry blame, the step-size controller's dt timeline and the
   sparse-LU health summary.  Deliberately plain data: the spice layer
   produces it via Cml_dft.Explain, this module only carries, (de)-
   serialises and renders it, exactly like [Manifest].

   Determinism: every field is derived from the re-simulation and the
   source manifest ([pm_created] is copied, not stamped), so the same
   manifest explains to byte-identical JSON at any [--jobs]. *)

let schema = "cml-dft-postmortem/1"

type hotspot = {
  h_name : string;  (* net or device label *)
  h_count : int;  (* times it was the worst offender *)
  h_worst : float;  (* worst delta (nets) / junction error (devices) *)
}

type lte_blame = {
  l_time : float;
  l_h : float;  (* the step size the rejection threw away *)
  l_node : string;  (* the node whose LTE forced the step down *)
  l_ratio : float;  (* |x - xpred| / tol at that node *)
  l_cascade : int;  (* consecutive rejections ending at this one *)
}

type retry_blame = {
  r_time : float;
  r_net : string;  (* worst unknown of the failed solve's last iteration *)
  r_delta : float;
}

type t = {
  pm_variant : string;
  pm_classes : string list;  (* the manifest's classification of it *)
  pm_selection : string;  (* why this variant was picked *)
  pm_source : string;  (* manifest/events path the variant came from *)
  pm_git : string;
  pm_created : string;  (* copied from the source manifest *)
  pm_options : (string * string) list;
  pm_outcome : string;  (* "completed" or "failed: <msg>" *)
  pm_narrative : string list;
  pm_stats : (string * float) list;  (* solver counters of the re-run *)
  pm_worst_nets : hotspot list;
  pm_worst_devices : hotspot list;
  pm_lte : lte_blame list;
  pm_retries : retry_blame list;
  pm_dt_times : float list;  (* decimated dt timeline *)
  pm_dt_steps : float list;
  pm_dt_causes : (string * int) list;  (* cause histogram, full run *)
  pm_lu : (string * float) list;  (* LU health numbers *)
}

(* ------------------------------------------------------------------ *)
(* JSON round trip *)

(* JSON has no inf/nan; a blown condition estimate must not poison the
   document *)
let fin v = if Float.is_finite v then v else 0.0

let hotspot_json h =
  Json.Obj
    [
      ("name", Json.Str h.h_name);
      ("count", Json.Num (float_of_int h.h_count));
      ("worst", Json.Num (fin h.h_worst));
    ]

let lte_json l =
  Json.Obj
    [
      ("time", Json.Num (fin l.l_time));
      ("h", Json.Num (fin l.l_h));
      ("node", Json.Str l.l_node);
      ("ratio", Json.Num (fin l.l_ratio));
      ("cascade", Json.Num (float_of_int l.l_cascade));
    ]

let retry_json r =
  Json.Obj
    [
      ("time", Json.Num (fin r.r_time));
      ("net", Json.Str r.r_net);
      ("delta", Json.Num (fin r.r_delta));
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("variant", Json.Str t.pm_variant);
      ("classes", Json.List (List.map (fun c -> Json.Str c) t.pm_classes));
      ("selection", Json.Str t.pm_selection);
      ("source", Json.Str t.pm_source);
      ("git", Json.Str t.pm_git);
      ("created", Json.Str t.pm_created);
      ("options", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.pm_options));
      ("outcome", Json.Str t.pm_outcome);
      ("narrative", Json.List (List.map (fun s -> Json.Str s) t.pm_narrative));
      ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (fin v))) t.pm_stats));
      ("worst_nets", Json.List (List.map hotspot_json t.pm_worst_nets));
      ("worst_devices", Json.List (List.map hotspot_json t.pm_worst_devices));
      ("lte_rejections", Json.List (List.map lte_json t.pm_lte));
      ("newton_retries", Json.List (List.map retry_json t.pm_retries));
      ("dt_times", Json.List (List.map (fun v -> Json.Num (fin v)) t.pm_dt_times));
      ("dt_steps", Json.List (List.map (fun v -> Json.Num (fin v)) t.pm_dt_steps));
      ( "dt_causes",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) t.pm_dt_causes) );
      ("lu", Json.Obj (List.map (fun (k, v) -> (k, Json.Num (fin v))) t.pm_lu));
    ]

exception Bad_postmortem of string

let str_or j ~default = match Json.to_str j with Some s -> s | None -> default

let member_str j key ~default =
  match Json.member key j with Some v -> str_or v ~default | None -> default

let member_num_assoc j key =
  match Json.member key j with
  | Some (Json.Obj kvs) ->
      List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v)) kvs
  | _ -> []

let member_nums j key =
  match Json.member key j with
  | Some (Json.List vs) -> List.filter_map Json.to_float vs
  | _ -> []

let hotspot_of_json j =
  match Json.member "name" j with
  | Some (Json.Str name) ->
      let num key = match Json.member key j with Some (Json.Num f) -> f | _ -> 0.0 in
      Some { h_name = name; h_count = int_of_float (num "count"); h_worst = num "worst" }
  | _ -> None

let lte_of_json j =
  match Json.member "node" j with
  | Some (Json.Str node) ->
      let num key = match Json.member key j with Some (Json.Num f) -> f | _ -> 0.0 in
      Some
        {
          l_time = num "time";
          l_h = num "h";
          l_node = node;
          l_ratio = num "ratio";
          l_cascade = int_of_float (num "cascade");
        }
  | _ -> None

let retry_of_json j =
  match Json.member "net" j with
  | Some (Json.Str net) ->
      let num key = match Json.member key j with Some (Json.Num f) -> f | _ -> 0.0 in
      Some { r_time = num "time"; r_net = net; r_delta = num "delta" }
  | _ -> None

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | Some (Json.Str s) -> raise (Bad_postmortem (Printf.sprintf "unsupported schema %S" s))
  | _ -> raise (Bad_postmortem "missing \"schema\" member"));
  let strs key =
    match Json.member key j with
    | Some (Json.List vs) -> List.filter_map Json.to_str vs
    | _ -> []
  in
  let rows key of_row =
    match Json.member key j with
    | Some (Json.List vs) -> List.filter_map of_row vs
    | _ -> []
  in
  {
    pm_variant = member_str j "variant" ~default:"?";
    pm_classes = strs "classes";
    pm_selection = member_str j "selection" ~default:"?";
    pm_source = member_str j "source" ~default:"?";
    pm_git = member_str j "git" ~default:"?";
    pm_created = member_str j "created" ~default:"?";
    pm_options =
      (match Json.member "options" j with
      | Some (Json.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v)) kvs
      | _ -> []);
    pm_outcome = member_str j "outcome" ~default:"?";
    pm_narrative = strs "narrative";
    pm_stats = member_num_assoc j "stats";
    pm_worst_nets = rows "worst_nets" hotspot_of_json;
    pm_worst_devices = rows "worst_devices" hotspot_of_json;
    pm_lte = rows "lte_rejections" lte_of_json;
    pm_retries = rows "newton_retries" retry_of_json;
    pm_dt_times = member_nums j "dt_times";
    pm_dt_steps = member_nums j "dt_steps";
    pm_dt_causes =
      List.map (fun (k, f) -> (k, int_of_float f)) (member_num_assoc j "dt_causes");
    pm_lu = member_num_assoc j "lu";
  }

let write ~path t = Json.write_file path (to_json t)

let read ~path = of_json (Json.parse_file path)

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let render_text t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "post-mortem: %s" t.pm_variant;
  line "source  : %s (git %s, created %s)" t.pm_source t.pm_git t.pm_created;
  line "picked  : %s" t.pm_selection;
  (match t.pm_classes with
  | [] -> line "classes : (benign)"
  | cs -> line "classes : %s" (String.concat " " cs));
  line "outcome : %s" t.pm_outcome;
  if t.pm_options <> [] then begin
    line "options :";
    List.iter (fun (k, v) -> line "  %-22s %s" k v) t.pm_options
  end;
  if t.pm_narrative <> [] then begin
    line "";
    List.iter (fun s -> line "  %s" s) t.pm_narrative
  end;
  if t.pm_stats <> [] then begin
    line "";
    line "solver counters (re-run with introspection):";
    List.iter (fun (k, v) -> line "  %-32s %14.6g" k v) t.pm_stats
  end;
  if t.pm_worst_nets <> [] then begin
    line "";
    line "worst nets (Newton delta-norm attribution):";
    line "  %-28s %12s %14s" "net" "times worst" "max delta";
    List.iter (fun h -> line "  %-28s %12d %14.4g" h.h_name h.h_count h.h_worst) t.pm_worst_nets
  end;
  if t.pm_worst_devices <> [] then begin
    line "";
    line "worst devices (junction limiting):";
    line "  %-28s %12s %14s" "device" "times worst" "max error";
    List.iter
      (fun h -> line "  %-28s %12d %14.4g" h.h_name h.h_count h.h_worst)
      t.pm_worst_devices
  end;
  if t.pm_lte <> [] then begin
    line "";
    line "LTE rejections (worst ratio first):";
    line "  %-12s %-12s %-28s %10s %8s" "t (s)" "h (s)" "blamed node" "ratio" "cascade";
    List.iter
      (fun l ->
        line "  %-12.4g %-12.3g %-28s %10.2f %8d" l.l_time l.l_h l.l_node l.l_ratio l.l_cascade)
      t.pm_lte
  end;
  if t.pm_retries <> [] then begin
    line "";
    line "Newton retries (failed solves, blamed net of the last iteration):";
    line "  %-12s %-28s %14s" "t (s)" "blamed net" "last delta";
    List.iter (fun r -> line "  %-12.4g %-28s %14.4g" r.r_time r.r_net r.r_delta) t.pm_retries
  end;
  if t.pm_dt_steps <> [] then begin
    let lo = List.fold_left Float.min infinity t.pm_dt_steps in
    let hi = List.fold_left Float.max neg_infinity t.pm_dt_steps in
    line "";
    line "dt timeline (%d points, %.3g s .. %.3g s):" (List.length t.pm_dt_steps) lo hi;
    line "  %s" (Trend.sparkline t.pm_dt_steps);
    if t.pm_dt_causes <> [] then
      line "  causes: %s"
        (String.concat ", "
           (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) t.pm_dt_causes))
  end;
  line "";
  line "LU health:";
  if t.pm_lu = [] then line "  no LU factorization to audit"
  else List.iter (fun (k, v) -> line "  %-32s %14.6g" k v) t.pm_lu;
  Buffer.contents b
