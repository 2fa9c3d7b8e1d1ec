type t = { n : int; re : float array; im : float array }

exception Singular of int

let create n = { n; re = Array.make (n * n) 0.0; im = Array.make (n * n) 0.0 }

let clear m =
  Array.fill m.re 0 (m.n * m.n) 0.0;
  Array.fill m.im 0 (m.n * m.n) 0.0

let add_entry m i j ~re ~im =
  let k = (i * m.n) + j in
  m.re.(k) <- m.re.(k) +. re;
  m.im.(k) <- m.im.(k) +. im

let mag2 re im = (re *. re) +. (im *. im)

(* complex division: (ar + j ai) / (br + j bi) *)
let cdiv ar ai br bi =
  let d = mag2 br bi in
  (((ar *. br) +. (ai *. bi)) /. d, ((ai *. br) -. (ar *. bi)) /. d)

let solve m ~b_re ~b_im =
  let n = m.n in
  assert (Array.length b_re = n && Array.length b_im = n);
  let re = Array.copy m.re and im = Array.copy m.im in
  let xr = Array.copy b_re and xi = Array.copy b_im in
  let idx i j = (i * n) + j in
  for k = 0 to n - 1 do
    (* partial pivot on magnitude *)
    let best = ref k and best_mag = ref (mag2 re.(idx k k) im.(idx k k)) in
    for i = k + 1 to n - 1 do
      let mg = mag2 re.(idx i k) im.(idx i k) in
      if mg > !best_mag then begin
        best := i;
        best_mag := mg
      end
    done;
    if !best_mag < 1e-26 then raise (Singular k);
    if !best <> k then begin
      for j = 0 to n - 1 do
        let t = re.(idx k j) in
        re.(idx k j) <- re.(idx !best j);
        re.(idx !best j) <- t;
        let t = im.(idx k j) in
        im.(idx k j) <- im.(idx !best j);
        im.(idx !best j) <- t
      done;
      let t = xr.(k) in
      xr.(k) <- xr.(!best);
      xr.(!best) <- t;
      let t = xi.(k) in
      xi.(k) <- xi.(!best);
      xi.(!best) <- t
    end;
    let pr = re.(idx k k) and pi = im.(idx k k) in
    for i = k + 1 to n - 1 do
      let fr, fi = cdiv re.(idx i k) im.(idx i k) pr pi in
      if fr <> 0.0 || fi <> 0.0 then begin
        for j = k + 1 to n - 1 do
          let ar = re.(idx k j) and ai = im.(idx k j) in
          re.(idx i j) <- re.(idx i j) -. ((fr *. ar) -. (fi *. ai));
          im.(idx i j) <- im.(idx i j) -. ((fr *. ai) +. (fi *. ar))
        done;
        xr.(i) <- xr.(i) -. ((fr *. xr.(k)) -. (fi *. xi.(k)));
        xi.(i) <- xi.(i) -. ((fr *. xi.(k)) +. (fi *. xr.(k)))
      end
    done
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let sr = ref xr.(i) and si = ref xi.(i) in
    for j = i + 1 to n - 1 do
      let ar = re.(idx i j) and ai = im.(idx i j) in
      sr := !sr -. ((ar *. xr.(j)) -. (ai *. xi.(j)));
      si := !si -. ((ar *. xi.(j)) +. (ai *. xr.(j)))
    done;
    let qr, qi = cdiv !sr !si re.(idx i i) im.(idx i i) in
    xr.(i) <- qr;
    xi.(i) <- qi
  done;
  (xr, xi)
