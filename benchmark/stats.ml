(* Order statistics for the benchmark's reports.  [quartiles] follows
   Python's [statistics.quantiles(xs, n=4)] (the "exclusive" method),
   so the spreads printed here match the ones an external checker
   computes from the same values. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let cut i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (cut 1, cut 2, cut 3)

(* Interquartile distance as a share of the median: the run-to-run
   spread a bound is judged against. *)
let spread xs =
  let q1, q2, q3 = quartiles xs in
  if q2 = 0.0 then 0.0 else (q3 -. q1) /. Float.abs q2

(* Nearest-rank percentile [pct] (0-100), refused ([None]) unless at
   least ten samples lie beyond it: a tail percentile read off fewer
   samples is one outlier, not a distribution. *)
let percentile xs ~pct =
  let a = sorted xs in
  let n = Array.length a in
  let rank = ((pct * n) + 99) / 100 in
  if n = 0 || n - rank < 10 then None else Some a.(max 0 (rank - 1))
