(* [main.exe compare SET_A SET_B]: each set is a directory holding at
   least three [results.json] files (one per [main.exe all] run).  For
   every workload and end-to-end metric it prints each set's median and
   quartiles and a verdict against the metric's bound in BENCHMARK.json:
   - unresolved: a set's own spread (interquartile distance over the
     median) is wider than the bound, unless every run of B reads better
     than every run of A;
   - worse: B's median is worse than A's by more than the bound;
   - within bound: otherwise. *)

module J = Cml_telemetry.Json

type bound = { metric : string; higher_is_better : bool; bound : float }

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid_argument s)) fmt

let field name j =
  match J.member name j with Some v -> v | None -> fail "missing %S member" name

let str j = match J.to_str j with Some s -> s | None -> fail "expected a string"
let num j = match J.to_float j with Some f -> f | None -> fail "expected a number"
let list j = match J.to_list j with Some l -> l | None -> fail "expected a list"
let obj = function J.Obj kvs -> kvs | _ -> fail "expected an object"

let read_bounds path =
  List.map
    (fun m ->
      {
        metric = str (field "name" m);
        higher_is_better = str (field "better" m) = "higher";
        bound = num (field "bound" m);
      })
    (list (field "end_to_end" (J.parse_file path)))

(* Every results.json below [dir]. *)
let rec results_files dir =
  List.concat_map
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then results_files p else if f = "results.json" then [ p ] else [])
    (List.sort compare (Array.to_list (Sys.readdir dir)))

(* (workload, metric, value) triples of one results.json. *)
let values path =
  List.concat_map
    (fun w ->
      let name = str (field "workload" w) in
      List.map (fun (m, v) -> (name, m, num (field "value" v))) (obj (field "metrics" w)))
    (list (field "workloads" (J.parse_file path)))

let verdict b xs ys =
  let worse x y = if b.higher_is_better then y < x *. (1.0 -. b.bound) else y > x *. (1.0 +. b.bound) in
  let lo l = List.fold_left Float.min infinity l and hi l = List.fold_left Float.max neg_infinity l in
  let clearly_better = if b.higher_is_better then lo ys > hi xs else hi ys < lo xs in
  if (Stats.spread xs > b.bound || Stats.spread ys > b.bound) && not clearly_better then "unresolved"
  else if worse (Stats.median xs) (Stats.median ys) then "worse"
  else "within bound"

let describe xs =
  let q1, q2, q3 = Stats.quartiles xs in
  Printf.sprintf "%.5g [%.5g, %.5g] n=%d" q2 q1 q3 (List.length xs)

(* Prints the table; returns whether any metric came out worse. *)
let run ~benchmark set_a set_b =
  let bounds = read_bounds benchmark in
  let load set =
    match results_files set with
    | files when List.length files >= 3 -> List.concat_map values files
    | files -> fail "%s holds %d results.json files; compare needs at least 3" set (List.length files)
  in
  let va = load set_a and vb = load set_b in
  let workloads = List.sort_uniq compare (List.map (fun (w, _, _) -> w) va) in
  let pick set w m = List.filter_map (fun (w', m', v) -> if w' = w && m' = m then Some v else None) set in
  Printf.printf "%-15s %-12s %5s  %-34s %-34s %s\n" "workload" "metric" "bound" ("A: " ^ set_a)
    ("B: " ^ set_b) "verdict";
  let worse = ref false in
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          match (pick va w b.metric, pick vb w b.metric) with
          | [], _ | _, [] -> ()
          | xs, ys ->
              let v = verdict b xs ys in
              if v = "worse" then worse := true;
              Printf.printf "%-15s %-12s %5.2f  %-34s %-34s %s\n" w b.metric b.bound (describe xs)
                (describe ys) v)
        bounds)
    workloads;
  !worse
