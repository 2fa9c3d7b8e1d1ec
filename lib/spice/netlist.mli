(** Mutable circuit netlists.

    A netlist is a set of named nodes (node 0 is ground, named ["0"])
    and a sequence of named devices.  Cells from [cml_cells] build
    hierarchical device names such as ["x3.q1"], which the defect
    injector uses to locate fault sites. *)

type node = int
(** Node identifier; [gnd] is 0. *)

val gnd : node

type device =
  | Resistor of { name : string; n1 : node; n2 : node; r : float }
  | Capacitor of { name : string; n1 : node; n2 : node; c : float }
  | Diode of { name : string; anode : node; cathode : node; model : Models.diode }
  | Bjt of {
      name : string;
      collector : node;
      base : node;
      emitters : node array;  (** one or more emitters (multi-emitter devices) *)
      model : Models.bjt;
    }
  | Vsource of { name : string; npos : node; nneg : node; wave : Waveform.t }
  | Isource of { name : string; npos : node; nneg : node; wave : Waveform.t }
      (** positive current flows from [npos] through the source into [nneg] *)
  | Vcvs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gain : float }
  | Vccs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gm : float }

type t

val create : unit -> t

val copy : t -> t
(** Deep copy; mutations of the copy do not affect the original. *)

val node : t -> string -> node
(** [node t name] returns the node called [name], creating it if
    needed.  ["0"] always denotes ground. *)

val fresh_node : t -> string -> node
(** A new node with a unique name derived from the prefix. *)

val node_count : t -> int
(** Number of nodes including ground. *)

val node_name : t -> node -> string

val find_node : t -> string -> node option

(* Device constructors; every device must have a unique name. *)

val resistor : t -> name:string -> node -> node -> float -> unit
val capacitor : t -> name:string -> node -> node -> float -> unit
val diode : t -> name:string -> ?model:Models.diode -> anode:node -> cathode:node -> unit -> unit

val bjt :
  t -> name:string -> ?model:Models.bjt -> c:node -> b:node -> e:node -> unit -> unit
(** Single-emitter NPN transistor. *)

val bjt_multi :
  t -> name:string -> ?model:Models.bjt -> c:node -> b:node -> emitters:node array -> unit -> unit
(** Multi-emitter NPN transistor (used by the area-optimised
    detectors of the paper's section 6.5). *)

val vsource : t -> name:string -> pos:node -> neg:node -> Waveform.t -> unit
val isource : t -> name:string -> pos:node -> neg:node -> Waveform.t -> unit
val vcvs : t -> name:string -> pos:node -> neg:node -> cpos:node -> cneg:node -> float -> unit
val vccs : t -> name:string -> pos:node -> neg:node -> cpos:node -> cneg:node -> float -> unit

val add_device : t -> device -> unit
(** Low-level insertion; rejects duplicate names. *)

val device_count : t -> int
val devices : t -> device list
(** In insertion order. *)

val iter_devices : t -> (device -> unit) -> unit

val map_devices : t -> (device -> device) -> t
(** [map_devices t f] is a copy of [t] with every device [d] replaced
    by [f d], applied in insertion order.  [f] may change values only.
    @raise Invalid_argument if [f d] has another kind, name or
    terminals than [d]. *)

val get_device : t -> string -> device
(** @raise Not_found if no device has that name. *)

val mem_device : t -> string -> bool

val set_device : t -> string -> device -> unit
(** Replace the device of that name (the replacement may have a
    different name as long as it stays unique). *)

val remove_device : t -> string -> unit
(** Delete the device. *)

val device_name : device -> string

val device_terminals : device -> (string * node) list
(** Terminal labels and the nodes they connect to, e.g.
    [("c", 5); ("b", 2); ("e", 7)] for a transistor. *)

val rewire_terminal : t -> dev:string -> terminal:string -> node -> unit
(** Reconnect one terminal of a device to another node; used to model
    opens by splitting a connection.
    @raise Not_found if the device or terminal does not exist. *)
