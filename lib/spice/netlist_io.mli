(** Text serialisation of netlists in a SPICE-flavoured card format,
    so circuits can be exported to (and reimported from) files, diffed
    and shared.

    Format: one device per line, [*]/[;] comments, [+] continuation
    lines, blank lines ignored, optional [.end] terminator.

    {v
    * basic cml buffer
    V vdd vgnd 0 DC 3.3
    R x1.r1 vgnd x1.on 500
    C x1.cn x1.on 0 95f
    Q x1.q1 x1.on in.p x1.ce BF=100 IS=4e-19
    Q det.q45 vout vtest x1.op x1.on      ; dual emitter
    D d1 a k
    V vin in.p 0 PULSE(3.05 3.3 0 50p 50p 4.95n 10n)
    I ib n1 0 DC 1u
    E e1 out 0 cp cn 10
    G g1 out 0 cp cn 1m
    .end
    v}

    Values accept engineering suffixes ([f p n u m k meg g t]) and the
    [e] exponent notation.  Node ["0"] is ground.  Device parameters
    default to {!Models.default_bjt} / {!Models.default_diode} fields
    when omitted. *)

exception Parse_error of { line : int; message : string }

val to_string : Netlist.t -> string
(** Render the netlist; parsing the result yields an equivalent
    netlist (same devices, names, nodes and parameters). *)

val of_string : string -> Netlist.t
(** Parse a netlist.
    @raise Parse_error on malformed input, at the line the offending
    card starts on: a bad token, a non-positive resistance, or a card
    {!Netlist} rejects (a duplicate device name). *)

val write_file : path:string -> Netlist.t -> unit

val read_file : path:string -> Netlist.t
(** @raise Parse_error or [Sys_error]. *)

val parse_value : string -> float option
(** Parse one numeric token with engineering suffixes
    (["2.2k"] = 2200, ["10p"] = 1e-11, ["3meg"] = 3e6); [None] for
    anything else, including a literal that overflows to infinity. *)

val format_value : float -> string
(** Render a value with an engineering suffix when exact. *)
