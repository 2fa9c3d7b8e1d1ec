type triplet = {
  tn : int;
  mutable rows : int array;
  mutable cols : int array;
  mutable vals : float array;
  mutable len : int;
}

let triplet_create ?(capacity = 64) n =
  let cap = max 1 capacity in
  { tn = n; rows = Array.make cap 0; cols = Array.make cap 0; vals = Array.make cap 0.0; len = 0 }

let grow t =
  let cap = Array.length t.rows in
  let cap' = 2 * cap in
  let extend a fillv =
    let b = Array.make cap' fillv in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.rows <- extend t.rows 0;
  t.cols <- extend t.cols 0;
  t.vals <- extend t.vals 0.0

let add t i j v =
  assert (i >= 0 && i < t.tn && j >= 0 && j < t.tn);
  if t.len = Array.length t.rows then grow t;
  t.rows.(t.len) <- i;
  t.cols.(t.len) <- j;
  t.vals.(t.len) <- v;
  t.len <- t.len + 1

type csc = {
  n : int;
  colptr : int array;
  rowind : int array;
  values : float array;
}

type pattern = { mat : csc; entry_of_triplet : int array }

(* Stable counting sort of [len] entry indices, the [p]-th being
   [src p], by [key.(k)], a coordinate in [0 .. n-1]. *)
let counting_sort n key len src =
  let next = Array.make (n + 1) 0 in
  for p = 0 to len - 1 do
    let c = key.(src p) + 1 in
    next.(c) <- next.(c) + 1
  done;
  for c = 1 to n do
    next.(c) <- next.(c) + next.(c - 1)
  done;
  let dst = Array.make len 0 in
  for p = 0 to len - 1 do
    let k = src p in
    let c = key.(k) in
    dst.(next.(c)) <- k;
    next.(c) <- next.(c) + 1
  done;
  dst

(* Compression is linear in the entry count: two stable counting sorts
   (by row, then by column) put the entries column-major with rows
   ascending, a walk over that order gives every distinct coordinate
   its stored slot (entry_of_triplet), and a final pass in entry order
   sums each entry into its slot. *)
let compress t =
  let n = t.tn and len = t.len in
  let by_row = counting_sort n t.rows len Fun.id in
  let order = counting_sort n t.cols len (fun p -> by_row.(p)) in
  let colptr = Array.make (n + 1) 0 in
  let entry_of_triplet = Array.make len 0 in
  let stored = ref 0 and last_row = ref (-1) and last_col = ref (-1) in
  Array.iter
    (fun k ->
      let r = t.rows.(k) and c = t.cols.(k) in
      if r <> !last_row || c <> !last_col then begin
        colptr.(c + 1) <- colptr.(c + 1) + 1;
        last_row := r;
        last_col := c;
        incr stored
      end;
      entry_of_triplet.(k) <- !stored - 1)
    order;
  for c = 1 to n do
    colptr.(c) <- colptr.(c) + colptr.(c - 1)
  done;
  let rowind = Array.make !stored 0 and values = Array.make !stored 0.0 in
  for k = 0 to len - 1 do
    let slot = entry_of_triplet.(k) in
    rowind.(slot) <- t.rows.(k);
    values.(slot) <- values.(slot) +. t.vals.(k)
  done;
  { mat = { n; colptr; rowind; values }; entry_of_triplet }

let csc_of_pattern p = p.mat

let entry_of_triplet p = p.entry_of_triplet

let mul_vec a x =
  assert (Array.length x = a.n);
  let y = Array.make a.n 0.0 in
  for j = 0 to a.n - 1 do
    let xj = x.(j) in
    if xj <> 0.0 then
      for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
        y.(a.rowind.(p)) <- y.(a.rowind.(p)) +. (a.values.(p) *. xj)
      done
  done;
  y

let to_dense a =
  let d = Dense.create a.n in
  for j = 0 to a.n - 1 do
    for p = a.colptr.(j) to a.colptr.(j + 1) - 1 do
      Dense.add_entry d a.rowind.(p) j a.values.(p)
    done
  done;
  d

let nnz a = a.colptr.(a.n)
