(* Run manifests: one machine-readable JSON document per campaign /
   Monte-Carlo run / characterisation sweep, recording what ran
   (tool, git revision, options, seed), what came out (per-variant
   classification and solver metrics), and where the time went
   (metrics snapshot, span summary).  Two runs of the same code and
   options differ only in timings, so manifests are diffable; the
   [cmldft report] subcommand renders them for humans. *)

let schema = "cml-dft-manifest/1"

type variant = {
  v_name : string;
  v_classes : string list;  (* classification labels, [] = benign/none *)
  v_seconds : float;
  v_metrics : (string * float) list;
}

type t = {
  kind : string;
  tool : string;
  git : string;
  created : string;  (* UTC, ISO-8601; informative only *)
  seed : int option;
  options : (string * string) list;
  healing : (string * int) list;
      (* healing-depth histogram ("clean" / "depth=N" / "unhealed");
         optional in the JSON, [] when absent — older readers of
         cml-dft-manifest/1 simply ignore the extra member *)
  variants : variant list;
  metrics : Metrics.snapshot;
  spans : (string * Trace.span_agg) list;
}

let git_describe () =
  match Unix.open_process_in "git describe --always --dirty 2>/dev/null" with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception Unix.Unix_error _) -> "unknown")

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let create ?seed ?(options = []) ?(healing = []) ?(variants = []) ?(metrics = []) ?(spans = [])
    ~kind () =
  {
    kind;
    tool = "cmldft";
    git = git_describe ();
    created = timestamp ();
    seed;
    options;
    healing;
    variants;
    metrics;
    spans;
  }

(* ------------------------------------------------------------------ *)
(* JSON round trip *)

let variant_json v =
  Json.Obj
    [
      ("name", Json.Str v.v_name);
      ("classes", Json.List (List.map (fun c -> Json.Str c) v.v_classes));
      ("seconds", Json.Num v.v_seconds);
      ("metrics", Json.Obj (List.map (fun (k, f) -> (k, Json.Num f)) v.v_metrics));
    ]

let span_json (name, (a : Trace.span_agg)) =
  Json.Obj
    [
      ("name", Json.Str name);
      ("count", Json.Num (float_of_int a.Trace.sa_count));
      ("total_s", Json.Num (Clock.ns_to_s a.Trace.sa_total_ns));
      ("max_s", Json.Num (Clock.ns_to_s a.Trace.sa_max_ns));
    ]

let to_json t =
  Json.Obj
    ([
       ("schema", Json.Str schema);
       ("kind", Json.Str t.kind);
       ("tool", Json.Str t.tool);
       ("git", Json.Str t.git);
       ("created", Json.Str t.created);
     ]
    @ (match t.seed with Some s -> [ ("seed", Json.Num (float_of_int s)) ] | None -> [])
    @ [ ("options", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) t.options)) ]
    @ (match t.healing with
      | [] -> []
      | h ->
          [ ("healing", Json.Obj (List.map (fun (k, n) -> (k, Json.Num (float_of_int n))) h)) ])
    @ [
        ("variants", Json.List (List.map variant_json t.variants));
        ("metrics", Metrics.to_json t.metrics);
        ("spans", Json.List (List.map span_json t.spans));
      ])

let str_or j ~default = match Json.to_str j with Some s -> s | None -> default

let variant_of_json j =
  match Json.member "name" j with
  | Some (Json.Str name) ->
      Some
        {
          v_name = name;
          v_classes =
            (match Json.member "classes" j with
            | Some (Json.List cs) -> List.filter_map Json.to_str cs
            | _ -> []);
          v_seconds =
            (match Json.member "seconds" j with Some (Json.Num s) -> s | _ -> 0.0);
          v_metrics =
            (match Json.member "metrics" j with
            | Some (Json.Obj ms) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
                  ms
            | _ -> []);
        }
  | _ -> None

let span_of_json j =
  match Json.member "name" j with
  | Some (Json.Str name) ->
      let num key = match Json.member key j with Some (Json.Num f) -> f | _ -> 0.0 in
      let ns s = Int64.of_float (s *. 1e9) in
      Some
        ( name,
          {
            Trace.sa_count = int_of_float (num "count");
            Trace.sa_total_ns = ns (num "total_s");
            Trace.sa_max_ns = ns (num "max_s");
          } )
  | _ -> None

exception Bad_manifest of string

let of_json j =
  (match Json.member "schema" j with
  | Some (Json.Str s) when s = schema -> ()
  | Some (Json.Str s) -> raise (Bad_manifest (Printf.sprintf "unsupported schema %S" s))
  | _ -> raise (Bad_manifest "missing \"schema\" member"));
  {
    kind = (match Json.member "kind" j with Some k -> str_or k ~default:"?" | None -> "?");
    tool = (match Json.member "tool" j with Some k -> str_or k ~default:"?" | None -> "?");
    git = (match Json.member "git" j with Some k -> str_or k ~default:"?" | None -> "?");
    created =
      (match Json.member "created" j with Some k -> str_or k ~default:"?" | None -> "?");
    seed =
      (match Json.member "seed" j with
      | Some (Json.Num s) -> Some (int_of_float s)
      | _ -> None);
    options =
      (match Json.member "options" j with
      | Some (Json.Obj kvs) ->
          List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v)) kvs
      | _ -> []);
    healing =
      (match Json.member "healing" j with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (Json.to_float v))
            kvs
      | _ -> []);
    variants =
      (match Json.member "variants" j with
      | Some (Json.List vs) -> List.filter_map variant_of_json vs
      | _ -> []);
    metrics =
      (match Json.member "metrics" j with Some m -> Metrics.of_json m | None -> []);
    spans =
      (match Json.member "spans" j with
      | Some (Json.List ss) -> List.filter_map span_of_json ss
      | _ -> []);
  }

let write ~path t = Json.write_file path (to_json t)

let read ~path = of_json (Json.parse_file path)

(* ------------------------------------------------------------------ *)
(* Report rendering *)

let class_counts variants =
  let tbl = Hashtbl.create 8 in
  let bump c = Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)) in
  List.iter
    (fun v -> match v.v_classes with [] -> bump "benign" | cs -> List.iter bump cs)
    variants;
  List.sort
    (fun (_, a) (_, b) -> compare (b : int) a)
    (Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl [])

let class_histogram t = class_counts t.variants

let slowest ?(n = 5) t =
  let sorted = List.sort (fun a b -> compare b.v_seconds a.v_seconds) t.variants in
  List.filteri (fun i _ -> i < n) sorted

let cone_line variants =
  let metric k v = List.assoc_opt k v.v_metrics in
  let smallest vs =
    List.fold_left (fun acc v -> Float.min acc (Option.get (metric "unknowns" v))) infinity vs
  in
  match List.filter (fun v -> metric "unknowns" v <> None) variants with
  | [] -> None
  | measured ->
      let m = List.length variants in
      let on_cone = List.filter (fun v -> metric "fallback" v = Some 0.0) measured in
      let fallbacks = List.length (List.filter (fun v -> metric "fallback" v = Some 1.0) variants) in
      Some
        (if on_cone <> [] then
           Printf.sprintf "%d of %d variants on a %.0f-unknown cone, %d fallbacks"
             (List.length on_cone) m (smallest on_cone) fallbacks
         else if fallbacks > 0 then
           Printf.sprintf "0 of %d variants on a cone, %d fallbacks" m fallbacks
         else
           Printf.sprintf "0 of %d variants on a cone (full netlist, %.0f unknowns)" m
             (smallest measured))

let render_text ?(top = 5) t =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "manifest: %s run (%s, git %s, created %s)" t.kind t.tool t.git t.created;
  (match t.seed with Some s -> line "seed    : %d" s | None -> ());
  if t.options <> [] then begin
    line "options :";
    List.iter (fun (k, v) -> line "  %-22s %s" k v) t.options
  end;
  (* surface the sparse-LU fill/ordering gauges as one line — the
     full metrics dump below keeps the raw values *)
  let num k =
    match List.assoc_opt k t.metrics with
    | Some (Metrics.Gauge v) -> Some v
    | Some (Metrics.Counter n) -> Some (float_of_int n)
    | Some (Metrics.Histogram _) | None -> None
  in
  (match num "solver.lu_fill_nnz" with
  | Some nnz when nnz > 0.0 ->
      let get k = Option.value ~default:0.0 (num k) in
      line "solver  : nnz(L+U) %.0f, fill ratio %.2f, orderings amd %.0f / natural %.0f" nnz
        (get "solver.lu_fill_ratio")
        (get "solver.ordering.amd")
        (get "solver.ordering.natural")
  | Some _ | None -> ());
  Option.iter (line "cone    : %s") (cone_line t.variants);
  if t.variants <> [] then begin
    line "";
    line "classification (%d variants):" (List.length t.variants);
    List.iter (fun (c, n) -> line "  %-24s %6d" c n) (class_histogram t);
    if t.healing <> [] then begin
      line "";
      line "healing depth:";
      List.iter (fun (c, n) -> line "  %-24s %6d" c n) t.healing
    end;
    line "";
    line "slowest variants:";
    List.iter
      (fun v ->
        line "  %-44s %8.3f s%s" v.v_name v.v_seconds
          (match v.v_classes with [] -> "" | cs -> "  [" ^ String.concat " " cs ^ "]"))
      (slowest ~n:top t)
  end;
  if t.metrics <> [] then begin
    line "";
    line "metrics:";
    Buffer.add_string b (Metrics.render_text t.metrics)
  end;
  if t.spans <> [] then begin
    line "";
    line "span summary (total time, heaviest first):";
    line "  %-28s %10s %12s %12s" "span" "count" "total" "max";
    List.iter
      (fun (name, (a : Trace.span_agg)) ->
        line "  %-28s %10d %10.3f s %10.3f s" name a.Trace.sa_count
          (Clock.ns_to_s a.Trace.sa_total_ns)
          (Clock.ns_to_s a.Trace.sa_max_ns))
      t.spans
  end;
  Buffer.contents b
