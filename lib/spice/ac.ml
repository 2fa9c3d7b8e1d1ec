type point = { freq : float; re : float array; im : float array }

let run ?x_op sim ~source ~freqs =
  let x = match x_op with Some x -> x | None -> Engine.dc_operating_point sim in
  let g_entries, c_entries = Engine.ac_system sim x in
  let n = Engine.unknown_count sim in
  let br = Engine.branch_unknown sim source in
  let b_re = Array.make n 0.0 and b_im = Array.make n 0.0 in
  b_re.(br) <- 1.0;
  let solve_at freq =
    let omega = 2.0 *. Float.pi *. freq in
    let m = Cml_numerics.Cdense.create n in
    List.iter (fun (i, j, g) -> Cml_numerics.Cdense.add_entry m i j ~re:g ~im:0.0) g_entries;
    List.iter
      (fun (i, j, c) -> Cml_numerics.Cdense.add_entry m i j ~re:0.0 ~im:(omega *. c))
      c_entries;
    let re, im = Cml_numerics.Cdense.solve m ~b_re ~b_im in
    { freq; re; im }
  in
  Array.to_list (Array.map solve_at freqs)

let complex_of point nd =
  let i = Engine.node_unknown nd in
  if i < 0 then (0.0, 0.0) else (point.re.(i), point.im.(i))

let magnitude point nd =
  let re, im = complex_of point nd in
  Float.hypot re im

let phase_deg point nd =
  let re, im = complex_of point nd in
  Float.atan2 im re *. 180.0 /. Float.pi

