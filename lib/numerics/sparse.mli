(** Sparse matrices for MNA systems.

    The workflow mirrors a circuit simulator: the coordinates of every
    device stamp are appended to a {!triplet} buffer once, and
    {!compress} turns them into a column-compressed ({!csc}) matrix
    plus, for every appended entry, the position in {!csc.values} it
    is summed into.  The pattern of an MNA system never changes
    between Newton iterations, so a simulator resolves each stamp's
    position once and afterwards accumulates values straight into
    {!csc.values} — no buffer, no re-sorting. *)

type triplet
(** Append-only (row, col, value) buffer.  Duplicate coordinates are
    legal and are summed at compression time. *)

val triplet_create : ?capacity:int -> int -> triplet
(** [triplet_create n] is an empty buffer for an [n] x [n] matrix,
    with room for [capacity] entries (default 64) before it grows. *)

val add : triplet -> int -> int -> float -> unit
(** [add t i j v] appends entry [(i, j, v)].  Indices must lie in
    [0 .. n-1]. *)

type csc = {
  n : int;
  colptr : int array;  (** length [n+1] *)
  rowind : int array;  (** row index of each stored entry *)
  values : float array;  (** numeric value of each stored entry *)
}
(** Compressed sparse column storage with sorted, duplicate-free rows
    within each column. *)

type pattern
(** The result of compression: a [csc] matrix plus the map from
    triplet entries to stored positions. *)

val compress : triplet -> pattern
(** Build the pattern and the numeric values from the current triplet
    contents, in time linear in the entry count plus the dimension.
    Each stored value is [0.0] plus the values of its coordinate's
    entries in entry order (the order they were {!add}ed) — exactly
    what re-stamping through {!entry_of_triplet} gives. *)

val csc_of_pattern : pattern -> csc
(** The underlying matrix (shared, not copied: writing its [values]
    in place keeps the pattern, which is how a fixed-pattern system is
    re-stamped). *)

val entry_of_triplet : pattern -> int array
(** [entry_of_triplet p].(k) is the index into [values] of the
    [k]-th appended entry's coordinate.  Re-stamping the same entries
    means zeroing [values] and adding the [k]-th value at this index,
    in entry order. *)

val mul_vec : csc -> float array -> float array
(** Matrix-vector product. *)

val to_dense : csc -> Dense.t
(** Expansion, for tests and debugging. *)

val nnz : csc -> int
(** Stored entry count. *)
