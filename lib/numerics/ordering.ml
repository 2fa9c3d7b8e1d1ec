(* Fill-reducing column orderings for the sparse LU.

   Both entry points run the same symbolic elimination on the
   symmetrized pattern of A (the graph of A + A^T), kept as a quotient
   graph: eliminating a pivot replaces it by an *element* whose
   boundary is the pivot's current neighbourhood, and absorbs the
   elements it was adjacent to — the classic minimum-degree machinery
   (Amestoy/Davis/Duff) with exact external degrees and without
   supervariables, which MNA patterns rarely form.  [amd] picks each
   pivot by smallest degree, lowest index breaking ties.  For a
   structurally symmetric pattern eliminated with diagonal pivots the
   boundary sizes equal the L/U column counts the LU will produce. *)

let identity n = Array.init n (fun i -> i)

(* A + A^T without its diagonal, as rows [idx.(ptr.(v)) .. idx.(ptr.(v + 1) - 1)]
   (an entry stored on both sides of the diagonal appears twice). *)
let symmetrized (a : Sparse.csc) =
  let n = a.Sparse.n in
  let iter f =
    for j = 0 to n - 1 do
      for p = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
        let i = a.Sparse.rowind.(p) in
        if i <> j then begin
          f i j;
          f j i
        end
      done
    done
  in
  let ptr = Array.make (n + 1) 0 in
  iter (fun i _ -> ptr.(i + 1) <- ptr.(i + 1) + 1);
  for v = 0 to n - 1 do
    ptr.(v + 1) <- ptr.(v + 1) + ptr.(v)
  done;
  let idx = Array.make ptr.(n) 0 and next = Array.sub ptr 0 n in
  iter (fun i j ->
      idx.(next.(i)) <- j;
      next.(i) <- next.(i) + 1);
  (ptr, idx)

(* Growable int array, and a binary min-heap on one. *)
type buf = { mutable a : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.a then begin
    let a = Array.make (max 8 (2 * b.len)) 0 in
    Array.blit b.a 0 a 0 b.len;
    b.a <- a
  end;
  b.a.(b.len) <- x;
  b.len <- b.len + 1

let heap_push h x =
  push h x;
  let rec up i =
    let parent = (i - 1) / 2 in
    if i > 0 && h.a.(parent) > x then begin
      h.a.(i) <- h.a.(parent);
      up parent
    end
    else h.a.(i) <- x
  in
  up (h.len - 1)

let heap_pop h =
  let top = h.a.(0) in
  h.len <- h.len - 1;
  let x = h.a.(h.len) in
  let rec down i =
    let c = (2 * i) + 1 in
    let c = if c + 1 < h.len && h.a.(c + 1) < h.a.(c) then c + 1 else c in
    if c < h.len && h.a.(c) < x then begin
      h.a.(i) <- h.a.(c);
      down c
    end
    else h.a.(i) <- x
  in
  down 0;
  top

(* Core symbolic elimination.  [force = Some order] replays that
   elimination order; [force = None] selects min-degree pivots.
   Returns the order used and the sum of boundary sizes (= nnz of the
   strictly lower triangle of the symmetric factor).

   Absorption is lazy: a pivot flags the elements it absorbs, and a
   variable's element list drops them when next walked.  No reach set
   changes, as the new element holds their live variables; and the
   boundary of an unabsorbed element is all live, as the first of it
   to go absorbs it.  Degrees are lazy too: the variables on a new
   boundary get the lower bound [deg - 1] (their reach lost only the
   pivot; the bound [|bd| - 1] from the reach now holding the boundary
   is never larger, as the pivot's degree [|bd|] was minimal) and turn
   dirty.  In the heap, keyed [deg * n + v], a dirty top is recounted
   and pushed back, so a clean top is the exact (degree, index)
   minimum. *)
let eliminate ?force (a : Sparse.csc) =
  let n = a.Sparse.n in
  let ptr, idx = symmetrized a in
  let els = Array.make n [||] and vel = Array.init n (fun _ -> { a = [||]; len = 0 }) in
  let absorbed = Array.make n false and alive = Array.make n true in
  let mark = Array.make n (-1) and stamp = ref 0 and scratch = Array.make n 0 in
  let deg = Array.make n 0 and dirty = Array.make n false in
  let heap = { a = Array.make n 0; len = 0 } in
  (* the live variables [v] reaches, written to [scratch] and counted *)
  let reach v ~absorb =
    incr stamp;
    let s = !stamp and d = ref 0 and el = vel.(v) and kept = ref 0 in
    let visit u =
      if mark.(u) <> s then begin
        mark.(u) <- s;
        scratch.(!d) <- u;
        incr d
      end
    in
    mark.(v) <- s;
    for i = 0 to el.len - 1 do
      let e = el.a.(i) in
      if not absorbed.(e) then begin
        absorbed.(e) <- absorb;
        el.a.(!kept) <- e;
        incr kept;
        Array.iter visit els.(e)
      end
    done;
    el.len <- !kept;
    for p = ptr.(v) to ptr.(v + 1) - 1 do
      if alive.(idx.(p)) then visit idx.(p)
    done;
    !d
  in
  let rec next_pivot () =
    let key = heap_pop heap in
    let v = key mod n in
    if (not alive.(v)) || (deg.(v) * n) + v <> key then next_pivot ()
    else if not dirty.(v) then v
    else begin
      dirty.(v) <- false;
      deg.(v) <- reach v ~absorb:false;
      heap_push heap ((deg.(v) * n) + v);
      next_pivot ()
    end
  in
  for v = 0 to n - 1 do
    deg.(v) <- reach v ~absorb:false;
    if force = None then heap_push heap ((deg.(v) * n) + v)
  done;
  let order = Array.make n 0 and fill = ref 0 in
  for k = 0 to n - 1 do
    let piv =
      match force with
      | Some ord ->
          let p = ord.(k) in
          if p < 0 || p >= n || not alive.(p) then
            invalid_arg "Ordering.fill_estimate: order is not a permutation";
          p
      | None -> next_pivot ()
    in
    order.(k) <- piv;
    alive.(piv) <- false;
    let nbd = reach piv ~absorb:true in
    els.(k) <- Array.sub scratch 0 nbd;
    fill := !fill + nbd;
    for j = 0 to nbd - 1 do
      let w = scratch.(j) in
      push vel.(w) k;
      if force = None then begin
        dirty.(w) <- true;
        deg.(w) <- deg.(w) - 1;
        heap_push heap ((deg.(w) * n) + w)
      end
    done
  done;
  (order, !fill)

let amd_with_fill a = eliminate a

let amd a = fst (eliminate a)

let fill_estimate a ~order =
  if Array.length order <> a.Sparse.n then
    invalid_arg "Ordering.fill_estimate: order length mismatch";
  snd (eliminate ~force:order a)

(* Upper bound on the natural-order fill: symmetric elimination fills
   a row only to the right of its first nonzero (the classic envelope
   theorem behind skyline solvers), so summing each row's distance to
   the first entry of A + A^T bounds the strict-lower factor count.
   One O(nnz) scan and a single int array — cheap enough that
   {!Sparse_lu.factorize}'s [Auto] can run it on every call and
   dismiss banded or near-banded systems without touching the
   elimination tree. *)
let envelope_bound (a : Sparse.csc) =
  let n = a.Sparse.n in
  let colptr = a.Sparse.colptr and rowind = a.Sparse.rowind in
  let first = Array.init n (fun i -> i) in
  for j = 0 to n - 1 do
    for p = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(p) in
      if i > j then begin
        if j < first.(i) then first.(i) <- j
      end
      else if i < first.(j) then first.(j) <- i
    done
  done;
  let ub = ref 0 in
  for i = 0 to n - 1 do
    ub := !ub + (i - first.(i))
  done;
  !ub

(* Natural-order fill without the quotient graph: build the
   elimination tree of the symmetrized pattern (Liu's algorithm, with
   ancestor path compression) and count row subtrees by climbing the
   *uncompressed* parent chains — [L(i,r)] is nonzero exactly for the
   nodes on the paths from the row's below-diagonal entries up to [i],
   and a per-row stamp makes each cost one visit.  Row [i] climbs only
   parents set by rows up to [i], so one pass does both in
   O(nnz(A) + fill), and stops at the row that takes the count past
   [cap].  This lets [Auto] price the natural order first. *)
let natural_fill ?(cap = max_int) (a : Sparse.csc) =
  let n = a.Sparse.n in
  let ptr, idx = symmetrized a in
  let parent = Array.make n (-1) and ancestor = Array.make n (-1) in
  let mark = Array.make n (-1) and fill = ref 0 and i = ref 0 in
  while !i < n && !fill <= cap do
    let row = !i in
    for p = ptr.(row) to ptr.(row + 1) - 1 do
      let r = ref idx.(p) in
      while !r <> -1 && !r < row do
        let next = ancestor.(!r) in
        ancestor.(!r) <- row;
        if next = -1 then parent.(!r) <- row;
        r := next
      done
    done;
    for p = ptr.(row) to ptr.(row + 1) - 1 do
      let r = ref idx.(p) in
      while !r <> -1 && !r < row && mark.(!r) <> row do
        mark.(!r) <- row;
        incr fill;
        r := parent.(!r)
      done
    done;
    incr i
  done;
  !fill
