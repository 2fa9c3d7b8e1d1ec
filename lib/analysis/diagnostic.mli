(** Shared diagnostics core for the static-analysis pass: every rule
    family (ERC, DFT audit, SCOAP) reports findings as values of
    {!t}, which render uniformly as text or JSON and sort
    deterministically so reports are diffable and machine-checkable. *)

type severity = Info | Warning | Error

type location =
  | Device of string  (** a netlist device, e.g. ["x3.q3"] *)
  | Node of string  (** a netlist node, by name *)
  | Cell of string  (** a CML cell instance, e.g. ["x3"] *)
  | Group of int  (** a read-out sharing group, by index *)
  | Gate of int  (** a gate-level net id *)
  | Output of string  (** a primary output, by name *)
  | Toplevel  (** the design as a whole *)

type t = {
  rule : string;  (** rule identifier, e.g. ["ERC001"] *)
  severity : severity;
  location : location;
  message : string;
}

val make : rule:string -> severity -> location -> ('a, unit, string, t) format4 -> 'a
(** [make ~rule sev loc fmt ...] builds a diagnostic with a formatted
    message. *)

val severity_name : severity -> string
(** ["info"], ["warning"] or ["error"]. *)

val severity_ge : severity -> severity -> bool
(** [severity_ge a b] is true when [a] is at least as severe as [b]. *)

val compare : t -> t -> int
(** Total order: most severe first, then rule id, location, message. *)

val sort : t list -> t list
(** Deterministic report order (stable under {!compare}). *)

val count : severity -> t list -> int
(** Diagnostics at exactly that severity. *)

val worst : t list -> severity option
(** Highest severity present, if any. *)

val to_string : t -> string
(** One line: ["error[ERC001] node x3.ce: ..."]. *)

val render_text : t list -> string
(** Sorted multi-line report plus a final summary line. *)

val render_json : t list -> string
(** Sorted JSON document
    [{"diagnostics":[...],"errors":N,"warnings":N,"infos":N}]; no
    external JSON dependency, strings are escaped per RFC 8259. *)
