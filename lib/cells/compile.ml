module C = Cml_logic.Circuit
module N = Cml_spice.Netlist

type stimulus = Toggle | Const of bool

type t = {
  circuit : C.t;
  builder : Builder.t;
  nets : Builder.diff array;
  names : string array;
  input : Builder.diff;
  input_name : string;
  outputs : (string * Builder.diff) list;
  freq : float;
}

let gate_fanins = function
  | C.Input _ -> []
  | C.And (a, b) | C.Or (a, b) | C.Xor (a, b) -> [ a; b ]
  | C.Not a | C.Buf a -> [ a ]
  | C.Mux { sel; a; b } -> [ sel; a; b ]
  | C.Dff { d } -> [ d ]

(* Fanout per net: consumers plus one load for a declared output (the
   pad or the next block it would drive). *)
let fanouts (c : C.t) =
  let f = Array.make (Array.length c.gates) 0 in
  Array.iter (fun g -> List.iter (fun a -> f.(a) <- f.(a) + 1) (gate_fanins g)) c.gates;
  List.iter (fun (_, id) -> f.(id) <- f.(id) + 1) c.outputs;
  f

(* Drive-strength multiplier for a given fanout: unit cells up to a
   fanout of 2, then current scaled with the load, capped at 3x.  The
   swing is preserved because the load resistors shrink by the same
   factor the tail current grows. *)
let drive_of_fanout f = if f <= 2 then 1.0 else Float.min 3.0 (float_of_int f /. 2.0)

(* A view of the shared builder with a resized process: same netlist,
   same rails, same bias line, but [k]x the tail current (the
   current-source transistor's saturation current scales, since every
   tail base sits on the one vbias line) into loads shrunk by [k].
   Cells registered through the view are copied back by the caller. *)
let with_drive (b : Builder.t) k =
  if k <= 1.0 then b
  else
    let p = b.Builder.proc in
    let bjt =
      { p.Process.bjt with Cml_spice.Models.q_is = p.Process.bjt.Cml_spice.Models.q_is *. k }
    in
    let proc =
      Process.with_tail_current
        { p with Process.r_load = p.Process.r_load /. k; bjt }
        (p.Process.i_tail *. k)
    in
    { b with Builder.proc = proc }

(* The constructor of a physical cell over its fan-in pairs in
   [gate_fanins] order, with a tag naming it in template keys; [None]
   for inputs, free NOTs and flip-flops. *)
let constructor = function
  | C.And _ -> Some ("and2", fun bl ~name i -> Gates.and2 bl ~name ~a:i.(0) ~b:i.(1))
  | C.Or _ -> Some ("or2", fun bl ~name i -> Gates.or2 bl ~name ~a:i.(0) ~b:i.(1))
  | C.Xor _ -> Some ("xor2", fun bl ~name i -> Gates.xor2 bl ~name ~a:i.(0) ~b:i.(1))
  | C.Mux _ -> Some ("mux21", fun bl ~name i -> Gates.mux21 bl ~name ~sel:i.(0) ~a:i.(1) ~b:i.(2))
  | C.Buf _ -> Some ("buf", fun bl ~name i -> Buffer_cell.add bl ~name ~input:i.(0))
  | C.Input _ | C.Not _ | C.Dff _ -> None

(* ------------------------------------------------------------------ *)
(* DC seeds.  A template is the DC solution of one cell on its own,
   its inputs driven at the standard CML levels: the voltages of the
   nodes its constructor creates, in creation order.  It is a pure
   function of (drive-scaled process, cell kind, input values), so one
   process-wide table serves every compile. *)

let templates : (Process.t * string * bool list, float array) Hashtbl.t = Hashtbl.create 64
let templates_lock = Mutex.create ()

let solve_template (proc, _, levels) construct =
  let bld = Builder.create ~proc () in
  let inputs =
    List.mapi (fun k value -> Builder.diff_dc_input bld ~name:(Printf.sprintf "in%d" k) ~value)
      levels
  in
  let first = N.node_count bld.Builder.net in
  ignore (construct bld ~name:"cell" (Array.of_list inputs));
  let count = N.node_count bld.Builder.net - first in
  let module E = Cml_spice.Engine in
  let x = E.dc_operating_point (E.compile bld.Builder.net) in
  Array.init count (fun k -> E.voltage x (first + k))

let template key construct =
  match Mutex.protect templates_lock (fun () -> Hashtbl.find_opt templates key) with
  | Some t -> t
  | None ->
      (* solved outside the lock; a racing domain solves the same
         template, and the first one stored wins *)
      let t = solve_template key construct in
      Mutex.protect templates_lock (fun () ->
          match Hashtbl.find_opt templates key with
          | Some t' -> t'
          | None ->
              Hashtbl.add templates key t;
              t)

let default_stimuli (c : C.t) =
  List.mapi (fun k (name, _) -> (name, if k = 0 then Toggle else Const (k land 1 = 1))) c.inputs

let compile ?(proc = Process.default) ?(freq = 100e6) ?stimuli (c : C.t) =
  let bld = Builder.create ~proc () in
  let net = bld.Builder.net in
  let n = Array.length c.gates in
  let ground = { Builder.p = N.gnd; n = N.gnd } in
  let nets = Array.make n ground in
  let names = C.net_names c in
  let fanout = fanouts c in
  (* primary inputs: one pair of complementary sources per input *)
  let stimuli = match stimuli with Some s -> s | None -> default_stimuli c in
  let stimulus_of name =
    match List.assoc_opt name stimuli with Some s -> s | None -> Const false
  in
  let toggling = ref None in
  List.iter
    (fun (declared, id) ->
      let name = names.(id) in
      nets.(id) <-
        (match stimulus_of declared with
        | Toggle ->
            let d = Builder.diff_square_input bld ~name ~freq () in
            if !toggling = None then toggling := Some (name, d);
            d
        | Const value -> Builder.diff_dc_input bld ~name ~value))
    c.inputs;
  (* flip-flop outputs resolve before anything is built: the slave
     latch's output nodes are fetched (created) by name now and the
     latch wires onto the same nodes later *)
  let clk =
    if Array.length c.dffs = 0 then ground
    else Builder.diff_square_input bld ~name:"clk" ~freq ()
  in
  Array.iter
    (fun id ->
      let nm = names.(id) in
      nets.(id) <- { Builder.p = N.node net (nm ^ ".s.op"); n = N.node net (nm ^ ".s.on") })
    c.dffs;
  (* combinational gates in topological order; a NOT is a free rail
     swap registered as an alias cell so the net name still resolves *)
  let build_cell id f =
    let b' = with_drive bld (drive_of_fanout fanout.(id)) in
    let out = f b' in
    if not (b' == bld) then bld.Builder.cells <- b'.Builder.cells;
    nets.(id) <- out;
    b'.Builder.proc
  in
  (* per physical combinational cell: its process, kind, constructor
     and the first node id and count of the nodes it created *)
  let built = ref [] in
  Array.iter
    (fun id ->
      let name = names.(id) in
      match c.C.gates.(id) with
      | C.Not a ->
          nets.(id) <- Builder.swap nets.(a);
          Builder.register_cell bld ~name ~outputs:nets.(id)
      | g ->
          Option.iter
            (fun (kind, construct) ->
              let inputs = Array.of_list (List.map (fun a -> nets.(a)) (gate_fanins g)) in
              let first = N.node_count net in
              let proc = build_cell id (fun bl -> construct bl ~name inputs) in
              built := (id, proc, kind, construct, first, N.node_count net - first) :: !built)
            (constructor g))
    c.C.order;
  (* flip-flops last, once their data nets exist; the plain name is
     registered as an alias of the slave output so campaign/plan
     targets resolve without the [.s] suffix *)
  Array.iter
    (fun id ->
      match c.C.gates.(id) with
      | C.Dff { d } ->
          let name = names.(id) in
          ignore (build_cell id (fun bl -> Latch.dff bl ~name ~d:nets.(d) ~clk));
          Builder.register_cell bld ~name ~outputs:nets.(id)
      | C.Input _ | C.And _ | C.Or _ | C.Xor _ | C.Not _ | C.Buf _ | C.Mux _ -> ())
    c.dffs;
  let input_name, input =
    match !toggling with
    | Some (name, d) -> (name, d)
    | None -> (
        match c.inputs with
        | (name, id) :: _ -> (name, nets.(id))
        | [] -> invalid_arg "Compile.compile: circuit has no inputs")
  in
  (* The DC seed of a combinational design: the rails and inputs at
     their t = 0 source values, every cell at its template for the
     logic state at t = 0, filled in node-creation order.  A design
     with flip-flops gets none: its state at t = 0 is not a function
     of the inputs. *)
  if Array.length c.dffs = 0 then begin
    let proc = bld.Builder.proc in
    let hi = proc.Process.vgnd and lo = Process.v_low proc in
    N.set_nodeset net bld.Builder.vgnd hi;
    N.set_nodeset net bld.Builder.vbias (Process.v_bias proc);
    let levels =
      List.map
        (fun (declared, id) ->
          (* a toggling input starts low *)
          let value = match stimulus_of declared with Toggle -> false | Const v -> v in
          N.set_nodeset net nets.(id).Builder.p (if value then hi else lo);
          N.set_nodeset net nets.(id).Builder.n (if value then lo else hi);
          Cml_logic.Value.of_bool value)
        c.inputs
    in
    let values = Cml_logic.Sim.eval c [||] ~inputs:(Array.of_list levels) in
    (* binary inputs and no flip-flops: every net evaluates to T or F *)
    List.iter
      (fun (id, proc, kind, construct, first, count) ->
        let levels = List.map (fun a -> values.(a) = Cml_logic.Value.T) (gate_fanins c.C.gates.(id)) in
        let t = template (proc, kind, levels) construct in
        if Array.length t = count then Array.iteri (fun k v -> N.set_nodeset net (first + k) v) t)
      (List.rev !built)
  end;
  {
    circuit = c;
    builder = bld;
    nets;
    names;
    input;
    input_name;
    outputs = List.map (fun (nm, id) -> (nm, nets.(id))) c.outputs;
    freq;
  }

let netlist t = t.builder.Builder.net

let find_cell t name =
  let rec find i =
    if i >= Array.length t.names then None
    else if t.names.(i) = name then Some t.nets.(i)
    else find (i + 1)
  in
  find 0

(* A physical cell owns devices of its own (prefix-named), so defect
   sites enumerate non-empty: any gate except an Input or a free
   NOT. *)
let physical t name =
  let rec find i =
    if i >= Array.length t.names then false
    else if t.names.(i) = name then
      match t.circuit.C.gates.(i) with
      | C.Input _ | C.Not _ -> false
      | C.And _ | C.Or _ | C.Xor _ | C.Buf _ | C.Mux _ | C.Dff _ -> true
    else find (i + 1)
  in
  find 0

let default_dut t =
  let order = t.circuit.C.order in
  let pick pred =
    Array.fold_left
      (fun acc id -> match acc with Some _ -> acc | None -> if pred id then Some id else None)
      None order
  in
  let is_gate id =
    match t.circuit.C.gates.(id) with
    | C.And _ | C.Or _ | C.Xor _ | C.Buf _ | C.Mux _ -> true
    | C.Input _ | C.Not _ | C.Dff _ -> false
  in
  let is_cell id =
    match t.circuit.C.gates.(id) with
    | C.Not _ -> true
    | C.Input _ | C.And _ | C.Or _ | C.Xor _ | C.Buf _ | C.Mux _ | C.Dff _ -> false
  in
  match pick is_gate with
  | Some id -> t.names.(id)
  | None -> (
      match pick is_cell with
      | Some id -> t.names.(id)
      | None -> invalid_arg "Compile.default_dut: circuit has no gates")

let default_output t =
  match List.rev t.outputs with
  | (name, _) :: _ -> name
  | [] -> default_dut t

let stats t =
  let physical_cells =
    Array.fold_left
      (fun acc g ->
        match g with
        | C.And _ | C.Or _ | C.Xor _ | C.Buf _ | C.Mux _ -> acc + 1
        | C.Dff _ -> acc + 2 (* master + slave latch *)
        | C.Input _ | C.Not _ -> acc)
      0 t.circuit.C.gates
  in
  (physical_cells, N.device_count (netlist t))
