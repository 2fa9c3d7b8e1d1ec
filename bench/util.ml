(* Shared formatting and measurement helpers for the experiment
   harness. *)

module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module T = Cml_spice.Transient
module B = Cml_cells.Builder

let section id title =
  let line = String.make 74 '=' in
  Printf.printf "\n%s\n%s | %s\n%s\n" line id title line

let paper lines =
  List.iteri
    (fun i l -> Printf.printf "%s %s\n" (if i = 0 then "paper   :" else "         ") l)
    lines;
  print_newline ()

(* Every shape check of the run goes through [verdict]; the harness
   exits non-zero when any of them missed (see [main.ml]). *)
let checks = ref 0
let misses = ref 0

let verdict ok msg =
  incr checks;
  if not ok then incr misses;
  Printf.printf "%s %s\n" (if ok then "[ok]  " else "[MISS]") msg

let ps t = t *. 1e12

let mv v = v *. 1e3

(* run a transient on a (possibly faulty) chain netlist and return a
   wave accessor *)
let run_chain net ~tstop =
  let sim = E.compile net in
  let r = T.run sim net (T.config ~tstop ~max_step:10e-12 ()) in
  fun nd -> Cml_wave.Wave.create r.T.times (T.node_trace r nd)

let stage_waves chain waves i =
  let d = Cml_cells.Chain.output chain i in
  (waves d.B.p, waves d.B.n)

(* linear least squares fit y = a + b x *)
let linear_fit pts =
  let n = float_of_int (List.length pts) in
  let sx = List.fold_left (fun s (x, _) -> s +. x) 0.0 pts in
  let sy = List.fold_left (fun s (_, y) -> s +. y) 0.0 pts in
  let sxx = List.fold_left (fun s (x, _) -> s +. (x *. x)) 0.0 pts in
  let sxy = List.fold_left (fun s (x, y) -> s +. (x *. y)) 0.0 pts in
  let b = ((n *. sxy) -. (sx *. sy)) /. ((n *. sxx) -. (sx *. sx)) in
  let a = (sy -. (b *. sx)) /. n in
  (a, b)
