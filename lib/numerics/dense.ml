type t = { n : int; a : float array }

exception Singular of int

let create n = { n; a = Array.make (n * n) 0.0 }

let get m i j = m.a.((i * m.n) + j)

let set m i j v = m.a.((i * m.n) + j) <- v

let add_entry m i j v = m.a.((i * m.n) + j) <- m.a.((i * m.n) + j) +. v

let of_arrays rows =
  let n = Array.length rows in
  let m = create n in
  Array.iteri
    (fun i row ->
      assert (Array.length row = n);
      Array.iteri (fun j v -> set m i j v) row)
    rows;
  m

let mul_vec m x =
  assert (Array.length x = m.n);
  Array.init m.n (fun i ->
      let s = ref 0.0 in
      for j = 0 to m.n - 1 do
        s := !s +. (get m i j *. x.(j))
      done;
      !s)

let pivot_threshold = 1e-13

(* Factorisation state reusable across same-size solves: the matrix
   copy and the permutation live in the workspace, so a refactor and a
   solve allocate nothing. *)
type ws = { wm : t; wperm : int array }

let ws n = { wm = create n; wperm = Array.make n 0 }

(* Classic in-place Doolittle elimination with row partial pivoting.
   After the loop, the strict lower triangle holds L (unit diagonal
   implied) and the upper triangle holds U, both in permuted order.
   It works on the flat backing array with unsafe accesses: every
   index is [row * n + col] with both in [0, n). *)
let factor_ws m ws =
  let n = m.n in
  assert (ws.wm.n = n);
  let a = ws.wm.a and perm = ws.wperm in
  Array.blit m.a 0 a 0 (n * n);
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    let kn = k * n in
    let best = ref k and best_abs = ref (Float.abs (Array.unsafe_get a (kn + k))) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Array.unsafe_get a ((i * n) + k)) in
      if v > !best_abs then begin
        best := i;
        best_abs := v
      end
    done;
    if !best_abs < pivot_threshold then raise (Singular k);
    if !best <> k then begin
      let bn = !best * n in
      for j = 0 to n - 1 do
        let tmp = Array.unsafe_get a (kn + j) in
        Array.unsafe_set a (kn + j) (Array.unsafe_get a (bn + j));
        Array.unsafe_set a (bn + j) tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(!best);
      perm.(!best) <- tmp
    end;
    let pivot = Array.unsafe_get a (kn + k) in
    for i = k + 1 to n - 1 do
      let im = i * n in
      let factor = Array.unsafe_get a (im + k) /. pivot in
      Array.unsafe_set a (im + k) factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          Array.unsafe_set a (im + j)
            (Array.unsafe_get a (im + j) -. (factor *. Array.unsafe_get a (kn + j)))
        done
    done
  done

(* Permuted forward/back substitution against the factor left in the
   workspace by [factor_ws]: the O(n^2) tail, repeatable for many
   right-hand sides of one factor. *)
let resolve_ws ws b out =
  let n = ws.wm.n in
  assert (Array.length b = n && Array.length out = n && not (b == out));
  let a = ws.wm.a and perm = ws.wperm in
  for i = 0 to n - 1 do
    out.(i) <- b.(perm.(i))
  done;
  for i = 1 to n - 1 do
    let im = i * n in
    let s = ref (Array.unsafe_get out i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get a (im + j) *. Array.unsafe_get out j)
    done;
    Array.unsafe_set out i !s
  done;
  for i = n - 1 downto 0 do
    let im = i * n in
    let s = ref (Array.unsafe_get out i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get a (im + j) *. Array.unsafe_get out j)
    done;
    Array.unsafe_set out i (!s /. Array.unsafe_get a (im + i))
  done

type lu = ws

let lu m =
  let w = ws m.n in
  factor_ws m w;
  w

let lu_solve w b =
  let out = Array.make w.wm.n 0.0 in
  resolve_ws w b out;
  out

let solve m b = lu_solve (lu m) b
