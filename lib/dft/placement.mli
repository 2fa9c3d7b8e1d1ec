(** COP/SCOAP-guided detector placement: choose the sensor sharing
    groups that keep full amplitude-fault coverage (every cell gets a
    sensor — the paper's scheme detects amplitude faults at the
    faulty cell itself, so coverage is structural) while respecting
    the {e derated} group limit from {!Derate} and minimising area:
    group count drives the read-out overhead, so the optimizer uses
    the fewest groups the limit allows and balances them.

    Members are cut in logic-depth order, which also minimises each
    group's depth span (a span warning means one read-out would mix
    sensors that settle at very different times).  The testability
    metrics ({!Cml_analysis.Cop}, {!Cml_analysis.Scoap}) rank the
    hardest nets so the report surfaces where random-pattern logic
    testing would struggle — the nets whose coverage depends on the
    detectors being placed at all. *)

type site = {
  cell : string;  (** analog cell instance the detector attaches to *)
  net : int;  (** gate-level twin net *)
  depth : int;  (** logic depth from the segment sources *)
  p1 : float;  (** COP one-probability *)
  obs : float;  (** COP change-propagation probability *)
  co : int;  (** SCOAP combinational observability *)
  score : float;  (** hardness rank key, higher = harder *)
}

val sites : circuit:Cml_logic.Circuit.t -> cells:(string * int) list -> site list
(** Evaluate the metrics once and annotate each (cell, twin net)
    pair.  @raise Invalid_argument on a net id outside the circuit. *)

type group = { g_index : int; g_members : site list }

type t = {
  limit : int;  (** derated per-group detector limit this plan obeys *)
  nominal_limit : int;
  groups : group list;
  ranking : site list;  (** every site, hardest first *)
  sensor_bjts : int;
  readout_bjts : int;
  area_overhead : float;  (** DFT transistors over functional transistors *)
}

val optimize : ?nominal_limit:int -> limit:int -> site list -> t
(** Minimum group count at full coverage under [limit], balanced
    contiguous depth-order cuts.  Publishes the [plan.groups] and
    [plan.area_overhead] gauges.  @raise Invalid_argument on
    [limit < 1]. *)

val of_groups : ?nominal_limit:int -> limit:int -> site list list -> t
(** Wrap an explicit (e.g. hand-written) grouping as a plan, with the
    same area accounting and gauges — {!check} then audits it against
    the limit. *)

type config = { depth_window : int; weak_obs : float }

val default_config : config
(** [depth_window = 12], [weak_obs = 0.05]. *)

val check : ?config:config -> t -> Cml_analysis.Diagnostic.t list
(** PLACE001 group over the derated limit (error), PLACE002 weak net
    with no detector (error), PLACE003 depth span over the window
    (warning), PLACE004 duplicate detector (warning); sorted. *)

val to_groups : t -> string list list
(** Member cell names per group, ready for
    {!Insertion.instrument_groups}. *)

(** {1 Serialisation} — schema ["cml-dft-plan/1"]. *)

val schema : string

exception Bad_plan of string

val to_json : t -> Cml_telemetry.Json.t
val of_json : Cml_telemetry.Json.t -> t
(** @raise Bad_plan on a malformed or wrong-schema document. *)

val write_json : path:string -> t -> unit
val render_text : t -> string

(** {1 Logic twins of the canonical scenarios} *)

val chain_twin : stages:int -> Cml_logic.Circuit.t * (string * int) list
(** Buffer-chain twin; cell names match {!Cml_cells.Chain.stage_name}. *)

val adder_twin : bits:int -> Cml_logic.Circuit.t * (string * int) list
(** Ripple-carry adder twin; cell names match the gates
    {!Cml_cells.Adder.ripple_carry} registers under ["add"]. *)
