(** Toggle coverage: the metric the paper's test approach drives
    (section 6.6) — an amplitude fault on a single output is only
    asserted when that gate's output toggles, so the pattern set must
    toggle every net. *)

type tracker

val create : Circuit.t -> tracker

val observe : tracker -> Value.t array -> unit
(** Record one cycle's net values. *)

val would_add : tracker -> Value.t array -> int
(** How many new (net, polarity) observations this cycle's values
    would contribute — the scoring function of {!Directed}. *)

val coverage : tracker -> float
(** Fraction of nets seen at both values. *)

val curve :
  Circuit.t -> initial:Sim.state -> patterns:Value.t array list -> (int * float) list
(** Toggle coverage after each applied pattern — the coverage growth
    curve. *)

val coverage_after :
  Circuit.t -> initial:Sim.state -> patterns:Value.t array list -> float
