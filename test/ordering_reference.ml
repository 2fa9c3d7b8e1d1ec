(* Test-only reference: the list-based minimum-degree elimination that
   {!Cml_numerics.Ordering} replaced, kept verbatim (as {!Cml_numerics.Dense}
   is kept beside the sparse LU) so that the array kernel can be checked
   against it order for order and fill for fill.

   It runs the symbolic elimination on the symmetrized pattern of A
   (the undirected graph of A + A^T) as a quotient graph: eliminating
   a pivot replaces it by an element whose boundary is the pivot's
   current neighbourhood, and the elements a pivot absorbs are dropped
   from its neighbours' lists.  [amd] picks each pivot by smallest
   exact external degree, lowest index breaking ties; [fill_estimate]
   replays a caller-supplied order. *)

module Sparse = Cml_numerics.Sparse

(* Undirected adjacency (no diagonal, no duplicates) of A + A^T. *)
let symmetrized_adj (a : Sparse.csc) =
  let n = a.Sparse.n in
  let adj = Array.make n [] in
  for j = 0 to n - 1 do
    for p = a.Sparse.colptr.(j) to a.Sparse.colptr.(j + 1) - 1 do
      let i = a.Sparse.rowind.(p) in
      if i <> j then begin
        adj.(i) <- j :: adj.(i);
        adj.(j) <- i :: adj.(j)
      end
    done
  done;
  let mark = Array.make n (-1) in
  Array.mapi
    (fun v l ->
      List.filter
        (fun w ->
          if mark.(w) = v then false
          else begin
            mark.(w) <- v;
            true
          end)
        l)
    adj

(* Core symbolic elimination.  [force = Some order] replays that
   elimination order; [force = None] selects min-degree pivots.
   Returns the order used and the sum of boundary sizes (= nnz of the
   strictly lower triangle of the symmetric factor). *)
let eliminate ?force (a : Sparse.csc) =
  let n = a.Sparse.n in
  let adj_var = symmetrized_adj a in
  let adj_el = Array.make n [] in
  (* element created at step k keeps its boundary in el_bd.(k) *)
  let el_bd = Array.make (max n 1) [||] in
  let alive = Array.make n true in
  let mark = Array.make n (-1) in
  let stamp = ref 0 in
  let deg = Array.make n 0 in
  Array.iteri (fun v l -> deg.(v) <- List.length l) adj_var;
  let order = Array.make n 0 in
  let fill = ref 0 in
  for k = 0 to n - 1 do
    let piv =
      match force with
      | Some ord ->
          let p = ord.(k) in
          if p < 0 || p >= n || not alive.(p) then
            invalid_arg "Ordering.fill_estimate: order is not a permutation";
          p
      | None ->
          (* smallest approximate degree, lowest index breaking ties:
             a linear scan keeps the selection deterministic and is
             cheap at MNA sizes *)
          let best = ref (-1) and bd = ref max_int in
          for v = 0 to n - 1 do
            if alive.(v) && deg.(v) < !bd then begin
              bd := deg.(v);
              best := v
            end
          done;
          !best
    in
    order.(k) <- piv;
    alive.(piv) <- false;
    (* boundary: alive neighbours through both plain edges and the
       boundaries of adjacent elements *)
    let s = !stamp in
    incr stamp;
    mark.(piv) <- s;
    let bd = ref [] and nbd = ref 0 in
    let visit w =
      if alive.(w) && mark.(w) <> s then begin
        mark.(w) <- s;
        bd := w :: !bd;
        incr nbd
      end
    in
    List.iter visit adj_var.(piv);
    List.iter (fun e -> Array.iter visit el_bd.(e)) adj_el.(piv);
    let bd_arr = Array.of_list !bd in
    let absorbed = adj_el.(piv) in
    el_bd.(k) <- bd_arr;
    fill := !fill + !nbd;
    Array.iter
      (fun w ->
        adj_var.(w) <- List.filter (fun u -> alive.(u) && u <> piv) adj_var.(w);
        adj_el.(w) <- k :: List.filter (fun e -> not (List.memq e absorbed)) adj_el.(w))
      bd_arr;
    if force = None then
      (* refresh the degrees of the variables the elimination touched;
         exact external degree via a fresh mark per variable *)
      Array.iter
        (fun w ->
          let s = !stamp in
          incr stamp;
          mark.(w) <- s;
          let d = ref 0 in
          let count u =
            if alive.(u) && mark.(u) <> s then begin
              mark.(u) <- s;
              incr d
            end
          in
          List.iter count adj_var.(w);
          List.iter (fun e -> Array.iter count el_bd.(e)) adj_el.(w);
          deg.(w) <- !d)
        bd_arr
  done;
  (order, !fill)

let amd_with_fill a = eliminate a

let amd a = fst (eliminate a)

let fill_estimate a ~order =
  if Array.length order <> a.Sparse.n then
    invalid_arg "Ordering.fill_estimate: order length mismatch";
  snd (eliminate ~force:order a)
