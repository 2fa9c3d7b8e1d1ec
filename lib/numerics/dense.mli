(** Dense square matrices stored row-major, with an LU factorisation
    (partial pivoting) used as the reference linear solver for small
    MNA systems and as the oracle in tests of the sparse solver. *)

type t
(** A mutable dense [n] x [n] matrix. *)

exception Singular of int
(** Raised by {!lu} when no acceptable pivot exists at the given
    elimination step. *)

val create : int -> t
(** [create n] is the [n] x [n] zero matrix. *)

val dim : t -> int
(** Matrix dimension. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

val add_entry : t -> int -> int -> float -> unit
(** [add_entry m i j v] accumulates [v] into [m.(i).(j)]; this is the
    stamping primitive. *)

val data : t -> float array
(** The row-major storage itself (entry [(i, j)] at [i * n + j]),
    shared, not copied: writes go straight into the matrix. *)

val copy : t -> t

val of_arrays : float array array -> t
(** Build from rows; all rows must have length equal to the number of
    rows. *)

val to_arrays : t -> float array array

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

val solve_ws : t -> ws -> float array -> float array -> unit
(** [solve_ws m ws b out] solves [m x = b] into [out] using the
    workspace for the factorisation — zero allocation.  [out] must not
    be [b] (checked).  The input matrix is not modified.  Equivalent
    to {!factor_ws} followed by {!resolve_ws}.
    @raise Singular like {!lu}. *)

val factor_ws : t -> ws -> unit
(** Factorise [m] into the workspace (copy + pivoted elimination)
    without solving.  The factor stays valid until the next
    [factor_ws]/[solve_ws] on the same workspace.
    @raise Singular like {!lu}. *)

val resolve_ws : ws -> float array -> float array -> unit
(** Triangular solve against the factor currently in the workspace —
    the O(n²) tail of {!solve_ws}, for callers that know the matrix
    has not changed since the last {!factor_ws}.  [out] must not be
    [b] (checked). *)
