(** Sparse LU factorisation in the style of Gilbert and Peierls
    (left-looking, one sparse triangular solve per column) with row
    partial pivoting and a mild preference for the diagonal to limit
    fill-in — the standard choice for MNA matrices. *)

exception Singular of int
(** Raised when no pivot above the absolute threshold exists while
    eliminating the given column. *)

type factor
(** A factorisation [P*A*Q = L*U] of a {!Sparse.csc} matrix ([Q] is
    the fill-reducing column order, the identity under [Natural]). *)

type ordering =
  | Natural  (** eliminate columns in matrix order *)
  | Amd  (** {!Ordering.amd} minimum-degree order, unconditionally *)
  | Auto
      (** compare the symbolic fill of the minimum-degree order
          against the natural one and keep whichever is smaller —
          never worse than [Natural] on structurally symmetric
          patterns (the default).  Prices the natural order first with
          the cheap {!Ordering.envelope_bound} and
          {!Ordering.natural_fill} counts and skips the min-degree
          analysis when the natural factor's strict-lower fill is at
          most [2 * nnz(A)], where ordering cannot pay for itself.
          Below 16 unknowns it always keeps the natural order. *)

val factorize : ?ordering:ordering -> Sparse.csc -> factor
(** Factor the matrix: symbolic analysis (column ordering, reach sets,
    pivot order, L/U patterns, buffer sizing) plus the numeric
    elimination.
    @raise Singular on structural or numeric singularity. *)

val reusable : factor -> Sparse.csc -> bool
(** Whether the factor's symbolic analysis applies to this matrix:
    same dimension and the {e same} pattern arrays (physical
    identity — {!Sparse.refill} refreshes values in place, so a
    matrix obtained from the same {!Sparse.pattern} stays
    reusable). *)

val refactorize : factor -> Sparse.csc -> bool
(** [refactorize f a] redoes only the numeric elimination of
    {!factorize}, in place, reusing the pivot order and the L/U
    patterns computed symbolically for a matrix with [a]'s pattern —
    no DFS, no pivot search, no allocation.  Returns [false], leaving
    [f] unusable, when the pattern does not match ({!reusable}) or a
    recycled pivot has degraded below the stability threshold; the
    caller must then {!factorize} afresh. *)

val solve : factor -> float array -> float array
(** [solve f b] returns [x] with [A x = b]. *)

val solve_into : factor -> float array -> float array -> unit
(** [solve_into f b x] writes the solution of [A x = b] into the
    caller-owned [x] — zero allocation.  [x] must not be [b]
    (checked); every component of [x] is overwritten. *)

val lu_nnz : factor -> int * int
(** Stored entries in [(L, U)]; for diagnostics. *)

val ordering_name : factor -> string
(** The column ordering the factor was built with: ["natural"] or
    ["amd"]. *)

val fill_ratio : factor -> float
(** [nnz(L) + nnz(U)] over [nnz(A)] — 1.0 means no fill beyond the
    matrix's own entries (L's unit diagonal included). *)

type refactor_failure =
  | Mismatched_pattern  (** {!reusable} said no: wrong pattern arrays *)
  | Small_pivot of int
      (** a recycled pivot fell below the absolute threshold while
          eliminating the given original column *)
  | Unstable_pivot of int
      (** a recycled pivot fell below the stability fraction of its
          column's magnitude at the given original column *)

val last_refactor_failure : factor -> refactor_failure option
(** Why the most recent {!refactorize} on this factor returned
    [false] — the reason for the caller's stability fallback to a
    full {!factorize}.  [None] after a successful refactorization
    (and on a freshly built or adopted factor). *)

type health = {
  pivot_growth : float;
      (** element-growth estimate [max|U| / max|A|]; values far above
          1 flag a factorization that is losing precision *)
  u_diag_max : float;
  u_diag_min : float;  (** extremes of [|diag(U)|] *)
  condition_estimate : float;
      (** [u_diag_max / u_diag_min] — a cheap lower bound on the
          condition number; 0 when the matrix is empty or a diagonal
          vanished *)
}

val health : factor -> Sparse.csc -> health
(** Numerical-health report for the current values of [f] against the
    matrix it factored.  Pure O(nnz) scans: safe to call at run
    boundaries, not meant for the per-solve hot path. *)

val adopt_symbolic : factor -> Sparse.csc -> factor option
(** [adopt_symbolic donor a] shares the donor's symbolic analysis
    (orderings, patterns, pivot order — immutable after
    {!factorize}) with a matrix whose pattern has the same {e
    content}, returning a factor with fresh numeric storage that the
    caller must {!refactorize} before solving (falling back to
    {!factorize} if the donor's pivot order is unstable for the new
    values).  [None] when the patterns differ. *)
