(** Fill-reducing column orderings for {!Sparse_lu}: minimum-degree on
    the symmetrized pattern (AMD-style quotient graph with element
    absorption), plus a symbolic fill count used to compare candidate
    orders before committing to one. *)

val identity : int -> int array
(** The natural order [0; 1; ...; n-1]. *)

val amd : Sparse.csc -> int array
(** Minimum-degree elimination order of the symmetrized pattern of the
    matrix; [order.(k)] is the original column eliminated at step [k].
    Deterministic (lowest index breaks degree ties). *)

val amd_with_fill : Sparse.csc -> int array * int
(** [amd] plus the fill its own elimination already counted — the same
    value [fill_estimate] would report for that order, without
    replaying the elimination. *)

val envelope_bound : Sparse.csc -> int
(** Upper bound on [natural_fill]: symmetric elimination fills only
    inside the row envelope, so summing each row's distance to its
    first entry in [A + A^T] bounds the strict-lower factor count.
    One [O(nnz)] scan; lets [Auto] dismiss banded systems without
    building the elimination tree. *)

val natural_fill : ?cap:int -> Sparse.csc -> int
(** [fill_estimate a ~order:(identity n)], computed with an
    elimination-tree row-count pass in [O(nnz(A) + fill)] instead of
    the quotient-graph elimination — cheap enough to run on every
    factorization as the [Auto] ordering's first look.  With [~cap]
    the count stops once it passes [cap]: the result is exact when it
    is at most [cap], and otherwise only known to exceed it. *)

val fill_estimate : Sparse.csc -> order:int array -> int
(** Entries of the strictly lower triangle of the symbolic factor when
    the symmetrized pattern is eliminated in [order] — exact for a
    structurally symmetric matrix factored with diagonal pivots, an
    estimate otherwise.  @raise Invalid_argument if [order] is not a
    permutation of [0..n-1]. *)
