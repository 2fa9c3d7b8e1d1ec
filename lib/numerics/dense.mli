(** Dense square matrices stored row-major, with an LU factorisation
    (partial pivoting).  The engine solves with {!Sparse_lu}; this is
    the reference solver tests and benchmarks check it against. *)

type t
(** A mutable dense [n] x [n] matrix. *)

exception Singular of int
(** Raised by {!lu} when no acceptable pivot exists at the given
    elimination step. *)

val create : int -> t
(** [create n] is the [n] x [n] zero matrix. *)

val get : t -> int -> int -> float

val add_entry : t -> int -> int -> float -> unit
(** [add_entry m i j v] accumulates [v] into [m.(i).(j)]; this is the
    stamping primitive. *)

val of_arrays : float array array -> t
(** Build from rows; all rows must have length equal to the number of
    rows. *)

val mul_vec : t -> float array -> float array
(** Matrix-vector product. *)

type lu
(** A factorisation [P*A = L*U]. *)

val lu : t -> lu
(** Factorise (the input matrix is not modified).
    @raise Singular if a pivot below the absolute threshold [1e-13]
    is encountered. *)

val lu_solve : lu -> float array -> float array
(** Solve [A x = b] given the factorisation of [A]. *)

val solve : t -> float array -> float array
(** One-shot [lu] + [lu_solve]. *)

type ws
(** Preallocated factorisation workspace (matrix copy + permutation)
    for repeated same-size solves. *)

val ws : int -> ws
(** Workspace for [n] x [n] systems. *)

val factor_ws : t -> ws -> unit
(** Factorise [m] into the workspace (copy + pivoted elimination)
    without solving.  The factor stays valid until the next
    [factor_ws] on the same workspace.
    @raise Singular like {!lu}. *)

val resolve_ws : ws -> float array -> float array -> unit
(** [resolve_ws ws b out] solves into [out] against the factor
    currently in the workspace — zero allocation.  [out] must not be
    [b] (checked). *)
