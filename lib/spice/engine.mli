(** The nonlinear MNA engine: compiles a {!Netlist.t} into a
    simulation structure, assembles the Newton companion system and
    solves DC operating points with gmin/source-stepping homotopies.
    Transient analysis lives in {!Transient}, sweeps in {!Sweep}. *)

type options = {
  reltol : float;  (** relative convergence tolerance (default 1e-4) *)
  vntol : float;  (** absolute node-voltage tolerance, V (default 1e-6) *)
  abstol : float;  (** absolute branch-current tolerance, A (default 1e-12) *)
  gmin : float;  (** conductance added across every pn junction (default 1e-12) *)
  max_iter : int;  (** Newton iteration limit per solve (default 100) *)
  bypass : bool;
      (** SPICE3-style device bypass (default [true]): skip the model
          evaluation of a junction device whose terminal voltages are
          within a tenth of the reltol/vntol convergence tolerance of
          its last full evaluation, replaying the cached stamps
          instead.  Device bypass alone keeps node voltages within
          10 x [vntol] of the bypass-off solution.  It also enables
          factor reuse: on a system whose LU refactorization costs
          more than an extra iteration's assembly and solve, a Newton
          iteration may solve with an older factor (a chord step,
          counted in {!solver_stats.chord_steps}); node voltages then
          stay within one Newton tolerance ([vntol + reltol * |v|]) of
          the bypass-off solution.  [false] evaluates the exact
          linearisation at every iterate. *)
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
(** Compile a netlist: build the sparse (CSC) Jacobian pattern from
    the stamp coordinates (ground rows and columns dropped) and
    resolve, once, the CSC position where every stamp of a load lands.
    Every later load zeroes the values and adds each stamp at its
    slot, so a matrix entry is the sum of its stamps in device order.
    The linear solves run a sparse LU ({!Cml_numerics.Sparse_lu}): one
    symbolic analysis per Jacobian pattern, then numeric-only
    refactorizations (see {!solver_stats}).  The netlist's nodeset
    becomes the start vector of {!dc_operating_point}.  A non-positive
    capacitance is left out; a NaN one is kept.  The layout (stamp
    slots, CSC pattern, LU column order) depends only on the device
    structure, so sims of one topology share it: a process-wide table
    keeps the last {!layout_bound} layouts, and a hit builds only the
    device records.  Each layout also keeps one value-free symbolic LU
    analysis (pivot order and L/U patterns), published by the first of
    its sims that runs a pivot search.  A sim's first factorization
    adopts it when a fresh search would pick the same pivots on the
    sim's values ({!Cml_numerics.Sparse_lu.adopt}), paying only the
    numeric elimination, and searches otherwise (see
    {!symbolic_adoptions}).  Hit or miss, adopted or searched, a sim
    solves bit-identically, whatever filled the table.
    @raise Invalid_argument on a non-positive resistance. *)

val layout_bound : int
(** How many layouts {!compile}'s table keeps (8); a new one replaces
    the oldest. *)

val jacobian : sim -> Cml_numerics.Sparse.csc
(** The sim's Jacobian: the pattern arrays are its layout's, the
    values its own, as the last load left them. *)

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
    entry of either vector is NaN or infinite. *)

val dc_operating_point : ?time:float -> sim -> float array
(** DC solution with sources evaluated at [time] (default 0).  When
    the compiled netlist carries a nodeset ({!Netlist.set_nodeset}),
    plain Newton starts from it (unset nodes at 0 V); if that fails,
    or without a nodeset, it tries plain Newton from 0 V, then gmin
    stepping, then source stepping (counted in
    {!solver_stats.seeded_starts} and {!solver_stats.seed_fallbacks}).
    @raise No_convergence if all strategies fail. *)

val dc_from : ?time:float -> sim -> float array -> float array
(** Like {!dc_operating_point} but starting from a previous solution
    (used by sweeps for continuation; falls back to the homotopies
    when the warm start fails). *)

val update_capacitor_states : sim -> float array -> h:float -> trap:bool -> unit
(** Commit an accepted time step: recompute and store each
    capacitor's voltage and current. *)

val init_capacitor_states : sim -> float array -> unit
(** Initialise capacitor memory from a DC solution (zero current). *)

type solver_stats = {
  symbolic_factorizations : int;
      (** full sparse LU factorizations (symbolic analysis + numeric),
          performed once per Jacobian pattern or after a pivot
          degraded; a first factorization that adopts its layout's
          analysis counts too, since it produces the same factor *)
  numeric_refactorizations : int;
      (** numeric-only refactorizations reusing the cached symbolic
          analysis — the cheap per-Newton-iteration path *)
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
          integration coefficient and gshunt): triangular
          substitution only, no numeric refactorization *)
  skipped_solves : int;
      (** Newton iterations accepted without a linear solve because
          the whole system (matrix {e and} RHS) was bit-identical to
          the one the previous iteration just solved — the solution is
          the current iterate, exactly *)
  chord_steps : int;
      (** Newton iterations that solved with the factor of an older
          Jacobian (a chord step) instead of refactoring; 0 with
          [bypass = false] and on systems whose refactorization is
          cheaper than an extra iteration *)
  seeded_starts : int;
      (** {!dc_operating_point} calls that started Newton from the
          netlist's nodeset *)
  seed_fallbacks : int;
      (** of {!field-seeded_starts}, how many failed to converge and
          fell back to the zero-start homotopy *)
  fallback_small_pivot : int;
      (** stability fallbacks to a full factorization because a
          recycled pivot fell below the absolute threshold *)
  fallback_unstable_pivot : int;
      (** ditto, pivot below the stability fraction of its column *)
  fallback_pattern : int;
      (** ditto, the cached factor's pattern no longer matched *)
  lu_nnz_factors : int;
      (** nnz(L) + nnz(U) of the cached LU factor; 0 before the first
          factorization *)
  lu_fill_ratio : float;
      (** [lu_nnz_factors] over nnz(A) — 1.0 means the factors stored
          no entries beyond the matrix's own *)
  lu_ordering : string;
      (** column ordering of the cached factor (["natural"] or
          ["amd"]); [""] before the first factorization *)
  lu_pivot_growth : float;
      (** element-growth estimate max|U|/max|A| of the cached factor
          against the current matrix values
          ({!Cml_numerics.Sparse_lu.health}); 0 without one *)
  lu_condition : float;
      (** cheap condition estimate from the U-diagonal extremes; 0
          without a factor *)
}

val solver_stats : sim -> solver_stats
(** Cumulative counters since {!compile}. *)

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
(** [(nnz L, nnz U)] of the cached LU factor, [None] before the first
    factorization. *)

type adoption_tally = {
  adopted : int;  (** first factorizations that adopted their layout's analysis *)
  refused : int;  (** ... that searched because a fresh search picks other pivots *)
  unoffered : int;  (** ... that searched because the layout had no analysis yet *)
}

val symbolic_adoptions : unit -> adoption_tally
(** Process-wide counts of first factorizations by outcome since
    start-up, also recorded as [lu.first_factor] trace instants.  They
    depend on which sim published each analysis, hence on scheduling
    and on earlier work in the process, so they are kept out of
    {!solver_stats} and the metrics registry. *)

val publish_metrics : ?since:solver_stats -> sim -> unit
(** Fold this sim's counter movement since [since] (default: a fresh
    sim) into the global {!Cml_telemetry.Metrics} registry
    ([solver.newton_iters], [engine.device_loads],
    [engine.bypassed_loads], per-class [engine.diode_*] /
    [engine.bjt_*], [solver.*_refactorizations],
    [solver.reused_factorizations], [solver.skipped_solves],
    [solver.chord_steps], [solver.fallback.*],
    [solver.lu_fill_nnz], [solver.lu_fill_ratio],
    [solver.lu_pivot_growth], [solver.lu_condition],
    [solver.ordering.*]).  Called at run boundaries, never inside the
    Newton loop. *)

val newton_system : sim -> float array -> (int * int * float) list * float array
(** The DC Newton system at [x], with every junction linearised
    exactly at [x] (no limiting, no bypass) and the sources at time 0:
    [(g_entries, b)] such that one Newton step from [x] solves
    [G x' = b].  [G] is assembled by the same routine as a Newton load,
    into the sim's matrix (which invalidates its factor), and lists
    each nonzero entry once, column by column with rows ascending.
    [b] is a fresh copy.  A reference solver can iterate this to check
    the engine's own linear algebra. *)

val ac_system :
  sim -> float array -> (int * int * float) list * (int * int * float) list
(** Small-signal system at the given (converged) operating point:
    [(g_entries, c_entries)] such that the AC response solves
    [(G + j*omega*C) x = b].  [G] is the Newton Jacobian at the
    operating point (junctions linearised, independent sources
    zeroed structurally — their rows stay, their excitation comes
    from the caller's [b]); [C] collects every capacitor stamp.
    Ground rows/columns are already dropped.  [G] is the
    [g_entries] of {!newton_system}; [C] entries may repeat and must
    be accumulated. *)

(** {2 pn-junction maths} shared by the diode and BJT evaluators *)

val limexp : float -> float
(** [limexp x] is [exp x] for [x <= 80] and a linear continuation
    above, so device evaluation never overflows. *)

val junction_current : is:float -> nvt:float -> float -> float * float
(** [junction_current ~is ~nvt v] is the pn-junction current and its
    conductance [(i, g)] at bias [v] (no gmin included). *)

val vcrit : is:float -> nvt:float -> float
(** Critical voltage for junction limiting (SPICE definition). *)

val pnjlim : vnew:float -> vold:float -> nvt:float -> vcrit:float -> float
(** SPICE junction-voltage limiting: clamp the Newton update of a
    junction voltage to avoid overflow-driven divergence. *)

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
