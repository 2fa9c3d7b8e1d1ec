(** The nonlinear MNA engine: compiles a {!Netlist.t} into a
    simulation structure, assembles the Newton companion system and
    solves DC operating points with gmin/source-stepping homotopies.
    Transient analysis lives in {!Transient}, sweeps in {!Sweep}. *)

type solver_kind =
  | Dense_solver
  | Sparse_solver
  | Auto  (** sparse above 60 unknowns, dense below *)

type options = {
  reltol : float;  (** relative convergence tolerance (default 1e-4) *)
  vntol : float;  (** absolute node-voltage tolerance, V (default 1e-6) *)
  abstol : float;  (** absolute branch-current tolerance, A (default 1e-12) *)
  gmin : float;  (** conductance added across every pn junction (default 1e-12) *)
  max_iter : int;  (** Newton iteration limit per solve (default 100) *)
  solver : solver_kind;
  bypass : bool;
      (** SPICE3-style device bypass (default [true]): skip the model
          evaluation of a junction device whose terminal voltages are
          within a tenth of the reltol/vntol convergence tolerance of
          its last full evaluation, replaying the cached stamps
          instead.  Node voltages stay within 10 x [vntol] of the
          bypass-off solution. *)
  lte_reltol_factor : float;
      (** multiplier on [reltol] for the transient local-truncation
          error acceptance test (default 30.0) *)
  lte_abstol : float;
      (** absolute floor of the transient local-truncation error
          acceptance test, V (default 1e-4) *)
}

val default_options : options

exception No_convergence of string
(** Raised when every homotopy fails to converge. *)

type sim
(** A compiled simulation.  Compilation snapshots the netlist: later
    netlist mutations are not seen. *)

type integ =
  | Dcop  (** capacitors open *)
  | Tran of { geq : float; trap : bool }
      (** companion-model mode: [geq] is the multiplier [1/h]
          (backward Euler, [trap = false]) or [2/h] (trapezoidal,
          [trap = true]) applied to each capacitance *)

val compile : ?options:options -> Netlist.t -> sim

val options : sim -> options
val unknown_count : sim -> int

val node_unknowns : sim -> int
(** Number of node-voltage unknowns (unknowns beyond this index are
    branch currents).  Together with {!unknown_count} this identifies
    layout-compatible sims: a warm start may only be seeded from a
    solution of a sim with the same counts. *)

val node_unknown : Netlist.node -> int
(** Index of a node voltage in a solution vector, or [-1] for
    ground. *)

val voltage : float array -> Netlist.node -> float
(** Voltage of a node in a solution vector (0 for ground). *)

val branch_unknown : sim -> string -> int
(** Index of the branch current of the named voltage source or VCVS.
    @raise Not_found if there is no such branch. *)

val newton :
  sim ->
  time:float ->
  integ:integ ->
  ?srcscale:float ->
  ?gshunt:float ->
  float array ->
  (float array * int) option
(** One Newton solve from the given initial vector; [Some (x, iters)]
    on convergence.  [gshunt] adds a conductance from every node to
    ground (gmin stepping); [srcscale] scales all independent
    sources (source stepping).  A NaN in the iterate, the update or a
    junction-limiting error rejects the iteration. *)

val converged : sim -> float array -> float array -> bool
(** [converged sim x x'] is Newton's update test: every node voltage
    moved by at most [vntol + reltol * max(|x|, |x'|)], every branch
    current by at most [abstol + reltol * ...].  [false] when any
    entry of either vector is NaN. *)

val dc_operating_point : ?time:float -> sim -> float array
(** DC solution with sources evaluated at [time] (default 0); tries
    plain Newton, then gmin stepping, then source stepping.
    @raise No_convergence if all strategies fail. *)

val dc_from : ?time:float -> sim -> float array -> float array
(** Like {!dc_operating_point} but starting from a previous solution
    (used by sweeps for continuation; falls back to the homotopies
    when the warm start fails). *)

val set_junction_states : sim -> float array -> unit
(** Reset every device's junction-limiting memory to the voltages
    implied by the given solution; called by the transient loop when
    restarting from a known state. *)

val update_capacitor_states : sim -> float array -> h:float -> trap:bool -> unit
(** Commit an accepted time step: recompute and store each
    capacitor's voltage and current. *)

val init_capacitor_states : sim -> float array -> unit
(** Initialise capacitor memory from a DC solution (zero current). *)

type solver_stats = {
  symbolic_factorizations : int;
      (** full sparse LU factorizations (symbolic analysis + numeric),
          performed once per Jacobian pattern or after a pivot
          degraded *)
  numeric_refactorizations : int;
      (** numeric-only refactorizations reusing the cached symbolic
          analysis — the cheap per-Newton-iteration path *)
  shared_symbolic : int;
      (** symbolic analyses adopted wholesale from a donor sim via
          {!share_symbolic} instead of being recomputed — batch lanes
          of one design pay for one ordering + pattern analysis *)
  newton_iters : int;
      (** Newton iterations (assemble + linear solve) since
          {!compile} *)
  device_loads : int;
      (** junction-device (diode/BJT) load opportunities across all
          iterations *)
  bypassed_loads : int;
      (** of {!field-device_loads}, how many replayed cached stamps
          instead of re-evaluating the model *)
  diode_loads : int;  (** per-class attribution of {!field-device_loads} *)
  diode_bypassed : int;
  bjt_loads : int;
  bjt_bypassed : int;
  reused_factorizations : int;
      (** linear solves that reused the previous factorization
          outright because the assembled matrix was bit-identical to
          the previous load's (every junction bypassed, same
          integration coefficient and gshunt) — dense: triangular
          substitution only; sparse: no numeric refactorization *)
  skipped_solves : int;
      (** Newton iterations accepted without a linear solve because
          the whole system (matrix {e and} RHS) was bit-identical to
          the one the previous iteration just solved — the solution is
          the current iterate, exactly *)
  fallback_small_pivot : int;
      (** stability fallbacks to a full factorization because a
          recycled pivot fell below the absolute threshold *)
  fallback_unstable_pivot : int;
      (** ditto, pivot below the stability fraction of its column *)
  fallback_pattern : int;
      (** ditto, the cached factor's pattern no longer matched *)
  lu_nnz_factors : int;
      (** nnz(L) + nnz(U) of the cached sparse factor; 0 for the dense
          backend or before the first factorization *)
  lu_fill_ratio : float;
      (** [lu_nnz_factors] over nnz(A) — 1.0 means the factors stored
          no entries beyond the matrix's own *)
  lu_ordering : string;
      (** column ordering of the cached factor (["natural"] or
          ["amd"]); [""] when there is no sparse factor *)
  lu_pivot_growth : float;
      (** element-growth estimate max|U|/max|A| of the cached factor
          against the current matrix values
          ({!Cml_numerics.Sparse_lu.health}); 0 without one *)
  lu_condition : float;
      (** cheap condition estimate from the U-diagonal extremes; 0
          without a sparse factor *)
}

val solver_stats : sim -> solver_stats
(** Cumulative counters since {!compile}; the factorization counters
    are zero for the dense backend. *)

val zero_stats : solver_stats
(** All-zero record, the [~since] of a fresh sim. *)

val set_introspect : sim -> Introspect.t option -> unit
(** Attach (or detach) a solver-introspection recorder.  With [None]
    — the default — every introspection hook on the Newton/transient
    hot path costs one load and one branch; with [Some r] the
    recorder captures per-iteration delta norms with worst-unknown
    and worst-device attribution, LU fallback reasons and (via
    {!Transient}) LTE blame and the dt timeline.  Attaching a
    recorder never changes simulation results — bit-identical
    waveforms, qcheck-enforced. *)

val introspect : sim -> Introspect.t option

val device_label : sim -> int -> string
(** Human-readable label for a device index reported by
    {!Introspect} worst-device attribution: the BJT's netlist name,
    or [diode[a-k]] terminals; out-of-range indices render as
    [device[i]]. *)

val lu_fill : sim -> (int * int) option
(** [(nnz L, nnz U)] of the cached sparse LU factor, [None] for the
    dense backend or before the first factorization. *)

val share_symbolic : donor:sim -> sim -> unit
(** Offer the donor's cached sparse symbolic analysis (column
    ordering, L/U patterns, pivot order) to [sim], to be adopted at
    its first factorization if the Jacobian patterns match — the
    batch scheduler calls this so K lanes of one design run one
    symbolic analysis and K numeric refactorizations, and the
    Monte-Carlo harness so every perturbed sample reuses its nominal
    netlist's analysis ([Variation.perturb] moves values, not
    topology).  A stale or
    mismatched offer is harmless: adoption silently falls back to a
    full factorization.  No-op unless both sims use the sparse
    backend and the donor has factored. *)

val publish_metrics : ?since:solver_stats -> sim -> unit
(** Fold this sim's counter movement since [since] (default: a fresh
    sim) into the global {!Cml_telemetry.Metrics} registry
    ([solver.newton_iters], [engine.device_loads],
    [engine.bypassed_loads], per-class [engine.diode_*] /
    [engine.bjt_*], [solver.*_refactorizations],
    [solver.reused_factorizations], [solver.skipped_solves],
    [solver.shared_symbolic], [solver.fallback.*],
    [solver.lu_fill_nnz], [solver.lu_fill_ratio],
    [solver.lu_pivot_growth], [solver.lu_condition],
    [solver.ordering.*]).  Called at run boundaries, never inside the
    Newton loop. *)

val ac_system :
  sim -> float array -> (int * int * float) list * (int * int * float) list
(** Small-signal system at the given (converged) operating point:
    [(g_entries, c_entries)] such that the AC response solves
    [(G + j*omega*C) x = b].  [G] is the Newton Jacobian at the
    operating point (junctions linearised, independent sources
    zeroed structurally — their rows stay, their excitation comes
    from the caller's [b]); [C] collects every capacitor stamp.
    Ground rows/columns are already dropped; entries may repeat and
    must be accumulated. *)

type bjt_op = {
  q_name : string;  (** device name; dual-emitter devices report one
                        entry per emitter, suffixed [#e<k>] *)
  vbe : float;
  vce : float;
  ic : float;  (** collector current (A) *)
  ib : float;
}

val bjt_report : sim -> float array -> bjt_op list
(** SPICE-style operating-point report: bias point of every
    transistor at the given solution, in netlist order. *)
