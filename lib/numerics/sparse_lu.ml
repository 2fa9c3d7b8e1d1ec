exception Singular of int

(* Growable entry buffer for building L and U column by column. *)
type buf = { mutable idx : int array; mutable v : float array; mutable len : int }

let buf_create cap = { idx = Array.make cap 0; v = Array.make cap 0.0; len = 0 }

let buf_push b i x =
  if b.len = Array.length b.idx then begin
    let cap = 2 * b.len in
    let idx = Array.make cap 0 and v = Array.make cap 0.0 in
    Array.blit b.idx 0 idx 0 b.len;
    Array.blit b.v 0 v 0 b.len;
    b.idx <- idx;
    b.v <- v
  end;
  b.idx.(b.len) <- i;
  b.v.(b.len) <- x;
  b.len <- b.len + 1

type factor = {
  n : int;
  l_colptr : int array;
  l_rowind : int array;  (* in pivotal (permuted) numbering *)
  l_values : float array;  (* first entry of each column is the unit diagonal *)
  u_colptr : int array;
  u_rowind : int array;  (* pivotal numbering; diagonal stored last *)
  u_values : float array;
  pinv : int array;  (* original row -> pivotal position *)
  q : int array;  (* elimination step -> original column *)
  q_identity : bool;  (* natural order: skip the output permutation *)
  qwork : float array;  (* solve scratch when [q] is not the identity *)
  ordering_label : string;  (* "natural" or "amd", for diagnostics *)
  a_colptr : int array;  (* the A pattern the symbolic analysis is valid for, *)
  a_rowind : int array;  (* identified physically: in-place value writes keep them *)
  a_cols : int array;  (* factor-owned, validated copy of A's column pointers *)
  a_prows : int array;  (* [pinv] of each of A's row indices, validated *)
  work : float array;  (* dense scratch for refactorize; zero between calls *)
  mutable last_failure : refactor_failure option;
      (* why the most recent [refactorize] returned false; [None]
         after a successful one *)
}

and refactor_failure =
  | Mismatched_pattern
  | Small_pivot of int
  | Unstable_pivot of int

type ordering = Natural | Amd | Auto

(* Unchecked array accesses for the numeric kernels ([refactorize],
   [solve_into], [solve_residual_into]).  Bounds checks were the whole
   gap between a checked and an unchecked refactorization of the c432
   Jacobian (448 vs 275 us on a 2-vCPU x86-64 host).  Memory safety
   holds by construction instead:
   - every index a kernel dereferences is read from an array the
     factor owns ([q], [pinv], the L/U patterns, [a_cols], [a_prows]),
     never mutated after the factor is built, and in range when built:
     the L/U patterns, [pinv] and [a_prows] come out of checked code,
     and [a_cols] passes [check_pattern];
   - the caller's arrays (A's values, right-hand sides, iterates,
     outputs) are length-checked once per call with [invalid_arg]. *)
external ( .%() ) : float array -> int -> float = "%array_unsafe_get"
external ( .%()<- ) : float array -> int -> float -> unit = "%array_unsafe_set"
external ( .!() ) : int array -> int -> int = "%array_unsafe_get"

(* A well-formed CSC pattern of dimension [n]: column pointers
   non-decreasing from 0 to the entry count, rows in [0, n). *)
let check_pattern n colptr rowind =
  let nnz = Array.length rowind in
  let ok = ref (Array.length colptr = n + 1 && colptr.(0) = 0 && colptr.(n) = nnz) in
  if !ok then
    for j = 0 to n - 1 do
      if colptr.(j) > colptr.(j + 1) then ok := false
    done;
  Array.iter (fun r -> if r < 0 || r >= n then ok := false) rowind;
  if not !ok then invalid_arg "Sparse_lu: malformed CSC pattern"

let check_length name arr len =
  if Array.length arr <> len then invalid_arg ("Sparse_lu." ^ name ^ ": array length mismatch")

let pivot_abs_threshold = 1e-13

(* Preference for the natural diagonal: accept original row [j] as
   pivot whenever its magnitude is within this factor of the best
   candidate.  MNA diagonals are almost always strong, and keeping
   them avoids fill-in from permutations. *)
let diag_preference = 1e-3

(* Depth-first search over the pattern of L, as in cs_dfs.  Returns
   the new [top]; on exit [xi.(top .. n-1)] holds the reach of [r0]
   in topological order.  [adj_ptr]/[adj_ind] describe L's columns in
   original row numbering; a row [r] with [pinv.(r) = k >= 0] has the
   entries of L's column [k] as children. *)
let dfs r0 ~marked ~pinv ~l_colptr ~l_rowind ~xi ~rstack ~pstack top0 =
  let top = ref top0 in
  let head = ref 0 in
  rstack.(0) <- r0;
  while !head >= 0 do
    let r = rstack.(!head) in
    if not marked.(r) then begin
      marked.(r) <- true;
      let k = pinv.(r) in
      pstack.(!head) <- (if k < 0 then -1 else l_colptr.(k))
    end;
    let k = pinv.(r) in
    let finished = ref true in
    if k >= 0 then begin
      let stop = l_colptr.(k + 1) in
      let p = ref pstack.(!head) in
      while !finished && !p < stop do
        let rr = l_rowind.(!p) in
        if not marked.(rr) then begin
          pstack.(!head) <- !p + 1;
          incr head;
          rstack.(!head) <- rr;
          finished := false
        end
        else incr p
      done;
      if !finished then pstack.(!head) <- stop
    end;
    if !finished then begin
      decr top;
      xi.(!top) <- r;
      decr head
    end
  done;
  !top

(* Below this size the elimination graph is too small for a
   min-degree order to beat the permutation bookkeeping it costs. *)
let auto_ordering_min = 16

(* The natural order is kept without pricing the min-degree analysis
   while its strict-lower fill stays within this multiple of nnz(A):
   the factor is then already about as sparse as the matrix, and the
   quotient-graph elimination would cost more than any reduction could
   pay back (on the banded 200-unknown perf kernel it was 5x the whole
   factor+solve).  The cutoff is relative because an absolute one
   misjudges small dense-ish systems: the N = 45 detector-sharing
   Jacobian (150 unknowns, nnz 1351) fills 93% of its lower triangle
   in natural order, and amd cuts its refactorization ~100x. *)
let auto_fill_factor = 2

let choose_ordering ordering (a : Sparse.csc) =
  let n = a.Sparse.n in
  match ordering with
  | Natural -> (Ordering.identity n, true, "natural")
  | Amd -> (Ordering.amd a, false, "amd")
  | Auto ->
      let cutoff = auto_fill_factor * Sparse.nnz a in
      if n < auto_ordering_min then (Ordering.identity n, true, "natural")
      else if Ordering.envelope_bound a <= cutoff then
        (* banded / near-banded: even the envelope bound says the
           factor stays small, one O(nnz) scan and we are done *)
        (Ordering.identity n, true, "natural")
      else if Ordering.natural_fill ~cap:cutoff a <= cutoff then
        (Ordering.identity n, true, "natural")
      else begin
        (* commit to whichever order the symbolic elimination says
           fills less; for the structurally symmetric patterns MNA
           produces the estimate is the exact factor size, so "amd"
           is only ever reported when it genuinely wins.  The natural
           fill is past the cutoff, so an amd fill within it wins
           outright; otherwise the natural count only needs to run
           until it passes the amd fill *)
        let qa, fa = Ordering.amd_with_fill a in
        if fa <= cutoff || Ordering.natural_fill ~cap:fa a > fa then (qa, false, "amd")
        else (Ordering.identity n, true, "natural")
      end

(* The numeric core of a full factorization in a given column order:
   per column the DFS reach, the sparse triangular solve and the
   partial-pivot search with diagonal preference.  [l_cap]/[u_cap]
   size the entry buffers, which grow on demand. *)
let factor_in_order ~q ~q_identity ~ordering_label ~l_cap ~u_cap (a : Sparse.csc) =
  let n = a.Sparse.n in
  (* the kernels read A's pattern through factor-owned arrays only:
     a copy of the column pointers and [a_prows], validated here once *)
  let a_cols = Array.copy a.Sparse.colptr in
  check_pattern n a_cols a.Sparse.rowind;
  check_length "factorize" a.Sparse.values (Array.length a.Sparse.rowind);
  let lbuf = buf_create (max 1 l_cap) and ubuf = buf_create (max 1 u_cap) in
  let l_colptr = Array.make (n + 1) 0 in
  let u_colptr = Array.make (n + 1) 0 in
  let pinv = Array.make n (-1) in
  let marked = Array.make n false in
  let x = Array.make n 0.0 in
  let xi = Array.make n 0 in
  let rstack = Array.make n 0 and pstack = Array.make n 0 in
  (* L's column pointers grow as we emit columns; dfs needs access to
     the partially built arrays, so we hand it the raw buffers. *)
  for j = 0 to n - 1 do
    (* elimination step [j] processes original column [q.(j)] *)
    let col = q.(j) in
    l_colptr.(j) <- lbuf.len;
    u_colptr.(j) <- ubuf.len;
    (* symbolic: reach of A(:,col) *)
    let top = ref n in
    for p = a.Sparse.colptr.(col) to a.Sparse.colptr.(col + 1) - 1 do
      let r = a.Sparse.rowind.(p) in
      if not marked.(r) then
        top := dfs r ~marked ~pinv ~l_colptr ~l_rowind:lbuf.idx ~xi ~rstack ~pstack !top
    done;
    (* numeric: scatter A(:,col) and run the sparse triangular solve *)
    for p = a.Sparse.colptr.(col) to a.Sparse.colptr.(col + 1) - 1 do
      x.(a.Sparse.rowind.(p)) <- x.(a.Sparse.rowind.(p)) +. a.Sparse.values.(p)
    done;
    for px = !top to n - 1 do
      let r = xi.(px) in
      let k = pinv.(r) in
      if k >= 0 then begin
        let xr = x.(r) in
        (* skip the unit diagonal stored first in column k *)
        for p = l_colptr.(k) + 1 to l_colptr.(k + 1) - 1 do
          x.(lbuf.idx.(p)) <- x.(lbuf.idx.(p)) -. (lbuf.v.(p) *. xr)
        done
      end
    done;
    (* pivot choice among the not-yet-pivotal rows of the reach *)
    let best = ref (-1) and best_abs = ref 0.0 and diag_abs = ref 0.0 in
    for px = !top to n - 1 do
      let r = xi.(px) in
      if pinv.(r) < 0 then begin
        let ax = Float.abs x.(r) in
        if ax > !best_abs then begin
          best_abs := ax;
          best := r
        end;
        if r = col then diag_abs := ax
      end
    done;
    if !best < 0 || !best_abs < pivot_abs_threshold then raise (Singular col);
    let piv = if !diag_abs >= diag_preference *. !best_abs then col else !best in
    let pivot_value = x.(piv) in
    pinv.(piv) <- j;
    (* emit column j of L (unit diagonal first) and U (diagonal last) *)
    buf_push lbuf piv 1.0;
    for px = !top to n - 1 do
      let r = xi.(px) in
      let k = pinv.(r) in
      if k >= 0 && r <> piv then buf_push ubuf k x.(r)
      else if r <> piv then buf_push lbuf r (x.(r) /. pivot_value);
      x.(r) <- 0.0;
      marked.(r) <- false
    done;
    x.(piv) <- 0.0;
    buf_push ubuf j pivot_value
  done;
  l_colptr.(n) <- lbuf.len;
  u_colptr.(n) <- ubuf.len;
  (* a buffer sized exactly by a previous factor is adopted as is *)
  let trim arr len = if Array.length arr = len then arr else Array.sub arr 0 len in
  (* remap L's rows to pivotal numbering for the triangular solves *)
  let l_rowind = trim lbuf.idx lbuf.len in
  for p = 0 to lbuf.len - 1 do
    l_rowind.(p) <- pinv.(l_rowind.(p))
  done;
  {
    n;
    l_colptr;
    l_rowind;
    l_values = trim lbuf.v lbuf.len;
    u_colptr;
    u_rowind = trim ubuf.idx ubuf.len;
    u_values = trim ubuf.v ubuf.len;
    pinv;
    q;
    q_identity;
    qwork = (if q_identity then [||] else Array.make n 0.0);
    ordering_label;
    a_colptr = a.Sparse.colptr;
    a_rowind = a.Sparse.rowind;
    a_cols;
    (* every row is pivotal after the last column: [pinv] is a
       permutation of [0, n) *)
    a_prows = Array.map (fun r -> pinv.(r)) a.Sparse.rowind;
    (* x ends the column loop all-zero; adopt it as the refactorize
       scratch so the numeric phase allocates nothing *)
    work = x;
    last_failure = None;
  }

type order = int array * bool * string

let column_order ?(ordering = Auto) a = choose_ordering ordering a

let factorize_in (q, q_identity, ordering_label) (a : Sparse.csc) =
  if Array.length q <> a.Sparse.n then invalid_arg "Sparse_lu.factorize_in: order dimension";
  factor_in_order ~q ~q_identity ~ordering_label ~l_cap:256 ~u_cap:256 a

let factorize ?ordering a = factorize_in (column_order ?ordering a) a

let reusable f (a : Sparse.csc) =
  f.n = a.Sparse.n && f.a_colptr == a.Sparse.colptr && f.a_rowind == a.Sparse.rowind

let same_pattern f (a : Sparse.csc) =
  f.n = a.Sparse.n
  && (f.a_colptr == a.Sparse.colptr || f.a_colptr = a.Sparse.colptr)
  && (f.a_rowind == a.Sparse.rowind || f.a_rowind = a.Sparse.rowind)

(* The column order depends on the pattern alone, so a fresh pivot
   search on a matrix of the same pattern can keep it: [choose_ordering]
   would derive the same order again, at several times the cost of the
   elimination itself on a design-sized system.  The old factor's L/U
   sizes are the likely sizes of the new one. *)
let repivot f (a : Sparse.csc) =
  if same_pattern f a then
    factor_in_order ~q:f.q ~q_identity:f.q_identity ~ordering_label:f.ordering_label
      ~l_cap:f.l_colptr.(f.n) ~u_cap:f.u_colptr.(f.n) a
  else factorize a

(* A pivot chosen on the old values is kept across refactorization
   only while it stays within this factor of its column's magnitude;
   below that the element growth of the triangular solves could eat
   half the mantissa, so we fall back to a fresh pivot search. *)
let refactor_stability = 1e-8

let refactorize f (a : Sparse.csc) =
  if not (reusable f a) then begin
    f.last_failure <- Some Mismatched_pattern;
    false
  end
  else begin
    let values = a.Sparse.values in
    check_length "refactorize" values (Array.length f.a_prows);
    let n = f.n and x = f.work and q = f.q in
    let a_cols = f.a_cols and a_prows = f.a_prows in
    let l_colptr = f.l_colptr and l_rowind = f.l_rowind and l_values = f.l_values in
    let u_colptr = f.u_colptr and u_rowind = f.u_rowind and u_values = f.u_values in
    let ok = ref true in
    let j = ref 0 in
    while !ok && !j < n do
      let jj = !j in
      let col = q.!(jj) in
      (* scatter A(:,q.(j)) into pivotal numbering *)
      for p = a_cols.!(col) to a_cols.!(col + 1) - 1 do
        let r = a_prows.!(p) in
        x.%(r) <- x.%(r) +. values.%(p)
      done;
      (* sparse triangular solve along the recorded pattern: the
         stored U rows of column j are in the topological order the
         symbolic DFS produced, so every x.(k) is final when read *)
      let dpos = u_colptr.!(jj + 1) - 1 in
      for p = u_colptr.!(jj) to dpos - 1 do
        let k = u_rowind.!(p) in
        let xk = x.%(k) in
        u_values.%(p) <- xk;
        x.%(k) <- 0.0;
        if xk <> 0.0 then
          for pl = l_colptr.!(k) + 1 to l_colptr.!(k + 1) - 1 do
            let r = l_rowind.!(pl) in
            x.%(r) <- x.%(r) -. (l_values.%(pl) *. xk)
          done
      done;
      let pivot = x.%(jj) in
      x.%(jj) <- 0.0;
      let colmax = ref (Float.abs pivot) in
      for p = l_colptr.!(jj) + 1 to l_colptr.!(jj + 1) - 1 do
        let ax = Float.abs x.%(l_rowind.!(p)) in
        if ax > !colmax then colmax := ax
      done;
      if Float.abs pivot < pivot_abs_threshold || Float.abs pivot < refactor_stability *. !colmax
      then begin
        ok := false;
        f.last_failure <-
          Some
            (if Float.abs pivot < pivot_abs_threshold then Small_pivot col
             else Unstable_pivot col);
        (* leave the scratch clean for the next attempt *)
        for p = l_colptr.!(jj) + 1 to l_colptr.!(jj + 1) - 1 do
          x.%(l_rowind.!(p)) <- 0.0
        done
      end
      else begin
        u_values.%(dpos) <- pivot;
        for p = l_colptr.!(jj) + 1 to l_colptr.!(jj + 1) - 1 do
          let r = l_rowind.!(p) in
          l_values.%(p) <- x.%(r) /. pivot;
          x.%(r) <- 0.0
        done
      end;
      incr j
    done;
    if !ok then f.last_failure <- None;
    !ok
  end

(* [refactorize]'s elimination for [adopt], in place in [f]'s value
   arrays, keeping each recorded pivot only where [factor_in_order]
   would choose it on these values: every candidate finite, and the
   pivot the diagonal with |diag| >= [diag_preference] * max, or else
   the strict maximum of its column with the diagonal below that
   fraction of it.  A tie refuses, since the search would take the
   first in reach order.  The pivots then equal the search's column by
   column, so do the reach sets and their order, hence every stored
   entry: where the search updates with a zero multiplier this kernel
   skips the update, and with every L entry at most 1 / [diag_preference]
   in magnitude that update subtracts a signed zero from a value that
   is never -0, which changes no bit.  A refusal leaves [f]'s scratch
   dirty: the caller drops [f]. *)
let eliminate_searched f values =
  let n = f.n and x = f.work and q = f.q and pinv = f.pinv in
  let a_cols = f.a_cols and a_prows = f.a_prows in
  let l_colptr = f.l_colptr and l_rowind = f.l_rowind and l_values = f.l_values in
  let u_colptr = f.u_colptr and u_rowind = f.u_rowind and u_values = f.u_values in
  let ok = ref true in
  let j = ref 0 in
  while !ok && !j < n do
    let jj = !j in
    let col = q.!(jj) in
    for p = a_cols.!(col) to a_cols.!(col + 1) - 1 do
      let r = a_prows.!(p) in
      x.%(r) <- x.%(r) +. values.%(p)
    done;
    let dpos = u_colptr.!(jj + 1) - 1 in
    for p = u_colptr.!(jj) to dpos - 1 do
      let k = u_rowind.!(p) in
      let xk = x.%(k) in
      u_values.%(p) <- xk;
      x.%(k) <- 0.0;
      if xk <> 0.0 then
        for pl = l_colptr.!(k) + 1 to l_colptr.!(k + 1) - 1 do
          let r = l_rowind.!(pl) in
          x.%(r) <- x.%(r) -. (l_values.%(pl) *. xk)
        done
    done;
    let pivot = x.%(jj) in
    let apiv = Float.abs pivot in
    (* the largest other candidate; a NaN one makes it NaN *)
    let lmax = ref 0.0 in
    for p = l_colptr.!(jj) + 1 to l_colptr.!(jj + 1) - 1 do
      let ax = Float.abs x.%(l_rowind.!(p)) in
      if ax > !lmax then lmax := ax else if ax <> ax then lmax := nan
    done;
    (* the diagonal's pivotal position: it is this column's pivot, an L
       row of it (or, outside the reach, a zero of the clean scratch),
       or already pivotal *)
    let d = pinv.!(col) in
    ok :=
      apiv >= pivot_abs_threshold && apiv < infinity && !lmax < infinity
      &&
      if d = jj then apiv >= diag_preference *. !lmax
      else apiv > !lmax && (d < jj || Float.abs x.%(d) < diag_preference *. apiv);
    if !ok then begin
      x.%(jj) <- 0.0;
      u_values.%(dpos) <- pivot;
      for p = l_colptr.!(jj) + 1 to l_colptr.!(jj + 1) - 1 do
        let r = l_rowind.!(p) in
        l_values.%(p) <- x.%(r) /. pivot;
        x.%(r) <- 0.0
      done;
      incr j
    end
  done;
  !ok

let last_refactor_failure f = f.last_failure

(* The triangular solves, in elimination numbering: [w] holds the
   right-hand side scattered through [pinv], and is [x] itself under
   the natural order.  Under a fill-reducing column order [w] is the
   [qwork] scratch, and the result, the permuted unknown vector, is
   unscrambled into [x] at the end. *)
let triangular_solves f w x =
  let n = f.n and q = f.q in
  let l_colptr = f.l_colptr and l_rowind = f.l_rowind and l_values = f.l_values in
  let u_colptr = f.u_colptr and u_rowind = f.u_rowind and u_values = f.u_values in
  (* forward solve with unit lower triangular L *)
  for j = 0 to n - 1 do
    let xj = w.%(j) in
    if xj <> 0.0 then
      for p = l_colptr.!(j) + 1 to l_colptr.!(j + 1) - 1 do
        let r = l_rowind.!(p) in
        w.%(r) <- w.%(r) -. (l_values.%(p) *. xj)
      done
  done;
  (* backward solve with U; the diagonal is the last entry of each column *)
  for j = n - 1 downto 0 do
    let dpos = u_colptr.!(j + 1) - 1 in
    let xj = w.%(j) /. u_values.%(dpos) in
    w.%(j) <- xj;
    if xj <> 0.0 then
      for p = u_colptr.!(j) to dpos - 1 do
        let r = u_rowind.!(p) in
        w.%(r) <- w.%(r) -. (u_values.%(p) *. xj)
      done
  done;
  if not f.q_identity then
    for j = 0 to n - 1 do
      x.%(q.!(j)) <- w.%(j)
    done

(* [b] scattered into pivotal numbering: the [w] of [triangular_solves]
   for the output [x] *)
let scatter_rhs f b x =
  let w = if f.q_identity then x else f.qwork and pinv = f.pinv in
  for i = 0 to f.n - 1 do
    w.%(pinv.!(i)) <- b.%(i)
  done;
  w

let check_vectors name f b x =
  check_length name b f.n;
  check_length name x f.n;
  if b == x then invalid_arg ("Sparse_lu." ^ name ^ ": output aliases the right-hand side")

let solve_into f b x =
  check_vectors "solve_into" f b x;
  triangular_solves f (scatter_rhs f b x) x

(* The residual is accumulated straight into pivotal numbering, one
   O(nnz) pass over A's columns in storage order.  Every entry enters,
   a zero [x.(col)] included, so a non-finite matrix entry always
   poisons the step. *)
let solve_residual_into f (a : Sparse.csc) x b d =
  if not (reusable f a) then invalid_arg "Sparse_lu.solve_residual_into: matrix not the factor's";
  let values = a.Sparse.values and a_cols = f.a_cols and a_prows = f.a_prows in
  check_length "solve_residual_into" values (Array.length a_prows);
  check_vectors "solve_residual_into" f b d;
  check_length "solve_residual_into" x f.n;
  if x == d then invalid_arg "Sparse_lu.solve_residual_into: output aliases x";
  let w = scatter_rhs f b d in
  for col = 0 to f.n - 1 do
    let xc = x.%(col) in
    for p = a_cols.!(col) to a_cols.!(col + 1) - 1 do
      let r = a_prows.!(p) in
      w.%(r) <- w.%(r) -. (values.%(p) *. xc)
    done
  done;
  triangular_solves f w d

(* An off-diagonal U entry (k, j) updates L's column k; the diagonal
   (j, j), stored last, scales L's column j.  Column lengths include
   the unit diagonal. *)
let refactor_work f =
  let work = ref 0 in
  for p = 0 to f.u_colptr.(f.n) - 1 do
    let k = f.u_rowind.(p) in
    work := !work + f.l_colptr.(k + 1) - f.l_colptr.(k)
  done;
  !work

let solve f b =
  let x = Array.make f.n 0.0 in
  solve_into f b x;
  x

let lu_nnz f = (f.l_colptr.(f.n), f.u_colptr.(f.n))

let ordering_name f = f.ordering_label

let fill_ratio f =
  let nnz_a = Array.length f.a_prows in
  if nnz_a = 0 then 0.0
  else float_of_int (f.l_colptr.(f.n) + f.u_colptr.(f.n)) /. float_of_int nnz_a

type health = {
  pivot_growth : float;  (* max|U| / max|A|; large values flag instability *)
  u_diag_max : float;
  u_diag_min : float;
  condition_estimate : float;  (* u_diag_max / u_diag_min *)
}

(* Pure O(nnz) scans over the stored values — callers pay only when
   they ask (run-boundary stats, post-mortems), never on the solve
   path.  The pivot-growth ratio is the classical element-growth
   estimate; the U-diagonal extremes give the standard cheap
   condition lower bound for a triangular factor. *)
let health f (a : Sparse.csc) =
  let amax = ref 0.0 in
  for p = 0 to a.Sparse.colptr.(a.Sparse.n) - 1 do
    let v = Float.abs a.Sparse.values.(p) in
    if v > !amax then amax := v
  done;
  let umax = ref 0.0 in
  for p = 0 to f.u_colptr.(f.n) - 1 do
    let v = Float.abs f.u_values.(p) in
    if v > !umax then umax := v
  done;
  let dmax = ref 0.0 and dmin = ref infinity in
  for j = 0 to f.n - 1 do
    let d = Float.abs f.u_values.(f.u_colptr.(j + 1) - 1) in
    if d > !dmax then dmax := d;
    if d < !dmin then dmin := d
  done;
  let dmin = if Float.is_finite !dmin then !dmin else 0.0 in
  {
    pivot_growth = (if !amax > 0.0 then !umax /. !amax else 0.0);
    u_diag_max = !dmax;
    u_diag_min = dmin;
    condition_estimate = (if dmin > 0.0 then !dmax /. dmin else 0.0);
  }

type symbolic = factor

(* Only the index arrays, immutable once built, are kept: the value
   arrays of the source factor stay its own. *)
let symbolic f =
  { f with l_values = [||]; u_values = [||]; qwork = [||]; work = [||]; last_failure = None }

(* A fresh factor on [s]'s analysis, kept only when the strict
   elimination finds every recorded pivot to be the searched one.  A
   completed elimination writes every entry but L's unit diagonals,
   which the fill value provides. *)
let adopt s (a : Sparse.csc) =
  if not (same_pattern s a) then None
  else begin
    check_length "adopt" a.Sparse.values (Array.length s.a_prows);
    let f =
      {
        s with
        l_values = Array.make (Array.length s.l_rowind) 1.0;
        u_values = Array.make (Array.length s.u_rowind) 0.0;
        qwork = (if s.q_identity then [||] else Array.make s.n 0.0);
        a_colptr = a.Sparse.colptr;
        a_rowind = a.Sparse.rowind;
        work = Array.make s.n 0.0;
      }
    in
    if eliminate_searched f a.Sparse.values then Some f else None
  end

let factors f =
  let csc colptr rowind values = { Sparse.n = f.n; colptr; rowind; values } in
  ( csc (Array.copy f.l_colptr) (Array.copy f.l_rowind) (Array.copy f.l_values),
    csc (Array.copy f.u_colptr) (Array.copy f.u_rowind) (Array.copy f.u_values),
    Array.copy f.pinv )
