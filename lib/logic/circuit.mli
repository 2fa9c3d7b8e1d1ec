(** Gate-level synchronous circuits: a directed graph of 2-input
    gates, primary inputs and D flip-flops (one implicit clock).
    Combinational cycles are rejected at {!finalize}; sequential
    loops must go through a flip-flop. *)

type gate =
  | Input of string
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Not of int
  | Buf of int
  | Mux of { sel : int; a : int; b : int }
  | Dff of { d : int }

type t = {
  gates : gate array;
  inputs : (string * int) list;  (** in declaration order *)
  outputs : (string * int) list;
  order : int array;  (** topological evaluation order of non-DFF gates *)
  dffs : int array;  (** gate ids of the flip-flops *)
}

type builder

val create : unit -> builder

val input : builder -> string -> int
(** Declare a primary input; returns its net id. *)

val and2 : builder -> int -> int -> int
val or2 : builder -> int -> int -> int
val xor2 : builder -> int -> int -> int
val not1 : builder -> int -> int
val buf : builder -> int -> int
val mux : builder -> sel:int -> a:int -> b:int -> int

val nand2 : builder -> int -> int -> int
val nor2 : builder -> int -> int -> int

val dff : builder -> int
(** Declare a flip-flop before its data input exists (for feedback);
    wire it later with {!connect_dff}. *)

val connect_dff : builder -> ff:int -> d:int -> unit
(** @raise Invalid_argument if [ff] is not an unconnected flip-flop. *)

val output : builder -> string -> int -> unit

val finalize : builder -> t
(** @raise Invalid_argument on a combinational cycle or an
    unconnected flip-flop.  The message names the offending nets: the
    full cycle in signal-flow order (["net 4 (buf) -> net 5 (and) ->
    net 4 (buf)"]) or every unconnected flip-flop id. *)

val num_nets : t -> int

val net_names : t -> string array
(** A unique, stable name per net: the declared primary-output name
    when the net has one, the input name for a primary input,
    ["n<id>"] otherwise — the shared contract between [cmldft plan]
    site names and {!Cml_cells.Compile} instance names.  A positional
    ["n<id>"] that an output declaration already claims for a
    different net (round-tripped [.bench] files) is suffixed with
    underscores until unique. *)
