module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module T = Cml_spice.Transient

(* The naming contract: the text before the first dot names the owning
   cell; a dotless name (a rail, ground, the [vdd] source) has none. *)
let owner name = Option.map (fun i -> String.sub name 0 i) (String.index_opt name '.')

(* The unknown count [Engine.compile] gives a netlist: one per
   non-ground node, one per voltage-source or VCVS branch. *)
let unknown_count net =
  let branches = ref 0 in
  N.iter_devices net (function
    | N.Vsource _ | N.Vcvs _ -> incr branches
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vccs _ -> ());
  N.node_count net - 1 + !branches

(* Per node of the netlist, whether an ideal voltage source ties it to
   ground. *)
let ideal_nets net =
  let ideal = Array.make (N.node_count net) false in
  N.iter_devices net (function
    | N.Vsource { npos; nneg; _ } ->
        if nneg = N.gnd then ideal.(npos) <- true;
        if npos = N.gnd then ideal.(nneg) <- true
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vcvs _ | N.Vccs _ -> ());
  ideal

let device_nodes d = List.map snd (N.device_terminals d)

let remap f = function
  | N.Resistor r -> N.Resistor { r with n1 = f r.n1; n2 = f r.n2 }
  | N.Capacitor c -> N.Capacitor { c with n1 = f c.n1; n2 = f c.n2 }
  | N.Diode d -> N.Diode { d with anode = f d.anode; cathode = f d.cathode }
  | N.Bjt b ->
      N.Bjt { b with collector = f b.collector; base = f b.base; emitters = Array.map f b.emitters }
  | N.Vsource v -> N.Vsource { v with npos = f v.npos; nneg = f v.nneg }
  | N.Isource i -> N.Isource { i with npos = f i.npos; nneg = f i.nneg }
  | N.Vcvs v -> N.Vcvs { v with npos = f v.npos; nneg = f v.nneg; cpos = f v.cpos; cneg = f v.cneg }
  | N.Vccs v -> N.Vccs { v with npos = f v.npos; nneg = f v.nneg; cpos = f v.cpos; cneg = f v.cneg }

(* The source forcing a boundary net; parentheses cannot occur in a
   compiled cell name, so the name never collides with a cell's. *)
let drive_name net = "drive(" ^ net ^ ")"

type t = {
  golden : N.t;
  cells : string list;
  devices : N.device list;  (** the golden devices the cone netlist copies *)
  boundary : (N.node * bool) list;  (** golden node, ideal *)
  unknowns : int;
  golden_unknowns : int;
}

(* The cone netlist: its devices on nodes of the same names, and each
   boundary net forced by a source of waveform [wave]. *)
let build golden devices boundary wave =
  let net = N.create () in
  let map nd = if nd = N.gnd then N.gnd else N.node net (N.node_name golden nd) in
  List.iter (fun d -> N.add_device net (remap map d)) devices;
  List.iter
    (fun (nd, _) ->
      N.vsource net ~name:(drive_name (N.node_name golden nd)) ~pos:(map nd) ~neg:N.gnd (wave nd))
    boundary;
  net

let cells t = t.cells
let boundary t = List.map (fun (g, ideal) -> (N.node_name t.golden g, ideal)) t.boundary
let unknowns t = t.unknowns
let golden_unknowns t = t.golden_unknowns
let selected t = 2 * t.unknowns <= t.golden_unknowns

let has_cell golden c =
  let prefix = c ^ "." and found = ref false in
  N.iter_devices golden (fun d -> if String.starts_with ~prefix (N.device_name d) then found := true);
  !found

(* The cells a defect attacks: the owner of its device, or the owners
   of a bridge's two nets; [[]] when it names no device or net of a
   cell of the netlist. *)
let defect_cells golden defect =
  let of_name name = match owner name with Some c when has_cell golden c -> [ c ] | _ -> [] in
  let of_device device = if N.mem_device golden device then of_name device else [] in
  let of_net name = match N.find_node golden name with Some _ -> of_name name | None -> [] in
  List.sort_uniq compare
    (match defect with
    | Defect.Pipe { device; _ }
    | Defect.Terminal_short { device; _ }
    | Defect.Open_terminal { device; _ }
    | Defect.Resistor_short { device }
    | Defect.Resistor_open { device } -> of_device device
    | Defect.Bridge { node1; node2; _ } -> of_net node1 @ of_net node2)

let extract golden ~cells =
  if cells = [] then invalid_arg "Cone.extract: no cells";
  let ideal = ideal_nets golden in
  let net_owner nd = if nd = N.gnd then None else owner (N.node_name golden nd) in
  let devices = N.devices golden in
  let cell_of d = owner (N.device_name d) in
  (* fanout: the owner of every non-ideal net a device reads gains the
     device's cell as a reader *)
  let readers = Hashtbl.create 256 in
  List.iter
    (fun d ->
      match cell_of d with
      | None -> ()
      | Some c ->
          List.iter
            (fun nd ->
              match net_owner nd with
              | Some o when o <> c && not ideal.(nd) -> Hashtbl.add readers o c
              | Some _ | None -> ())
            (device_nodes d))
    devices;
  let in_cone = Hashtbl.create 64 in
  let rec add c =
    if not (Hashtbl.mem in_cone c) then begin
      Hashtbl.replace in_cone c ();
      List.iter add (Hashtbl.find_all readers c)
    end
  in
  (* roots: the attacked cells and the drivers of their non-ideal
     inputs *)
  List.iter
    (fun d ->
      match cell_of d with
      | Some c when List.mem c cells ->
          List.iter
            (fun nd ->
              match net_owner nd with Some o when not ideal.(nd) -> add o | Some _ | None -> ())
            (device_nodes d)
      | Some _ | None -> ())
    devices;
  List.iter add cells;
  let member d = match cell_of d with Some c -> Hashtbl.mem in_cone c | None -> false in
  let cone_devices = List.filter member devices in
  (* every net the cone touches: owned by a cone cell, a rail its ideal
     source drives, or a boundary net *)
  let touched = Array.make (N.node_count golden) false in
  List.iter (fun d -> List.iter (fun nd -> touched.(nd) <- true) (device_nodes d)) cone_devices;
  let owned nd = match net_owner nd with Some o -> Hashtbl.mem in_cone o | None -> false in
  let rail nd = nd <> N.gnd && net_owner nd = None && ideal.(nd) in
  let boundary =
    List.filter_map
      (fun nd -> if touched.(nd) && not (owned nd || rail nd) then Some (nd, ideal.(nd)) else None)
      (List.init (N.node_count golden - 1) (fun i -> i + 1))
  in
  let rail_source = function
    | N.Vsource { npos; nneg; _ } ->
        (npos = N.gnd && rail nneg && touched.(nneg)) || (nneg = N.gnd && rail npos && touched.(npos))
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vcvs _ | N.Vccs _ ->
        false
  in
  let devices = List.filter (fun d -> member d || rail_source d) devices in
  let net = build golden devices boundary (fun _ -> Cml_spice.Waveform.Dc 0.0) in
  let cells =
    List.rev
      (List.fold_left
         (fun acc d ->
           match cell_of d with Some c when not (List.mem c acc) -> c :: acc | Some _ | None -> acc)
         [] cone_devices)
  in
  {
    golden;
    cells;
    devices;
    boundary;
    unknowns = unknown_count net;
    golden_unknowns = unknown_count golden;
  }

(* The PWL knots of a sampled waveform.  A sample is dropped when it
   lies within [vntol] (below what Newton resolves) of the segment
   between the knots kept around it, so plateaus collapse to their
   ends.  A segment spans at most [max_span] samples, which bounds the
   check per sample. *)
let max_span = 64

let simplify times values =
  let tol = E.default_options.E.vntol in
  let fits a j =
    let ta = times.(a) and va = values.(a) in
    let slope = (values.(j) -. va) /. (times.(j) -. ta) in
    let ok = ref true in
    for i = a + 1 to j - 1 do
      if not (Float.abs (va +. (slope *. (times.(i) -. ta)) -. values.(i)) <= tol) then ok := false
    done;
    !ok
  in
  let n = Array.length times in
  let knot k = (times.(k), values.(k)) in
  if n = 0 then [||]
  else begin
    let kept = ref [ knot 0 ] and a = ref 0 in
    for j = 2 to n - 1 do
      if j - !a > max_span || not (fits !a j) then begin
        kept := knot (j - 1) :: !kept;
        a := j - 1
      end
    done;
    if n > 1 then kept := knot (n - 1) :: !kept;
    Array.of_list (List.rev !kept)
  end

type driven = {
  d_net : N.t;
  d_guide : T.result;
  d_supply : float;
  d_nodes : (string, N.node) Hashtbl.t;  (** cone-owned nets, by name *)
  d_draw : string list;  (** sources of the non-ideal boundary nets *)
}

let netlist d = d.d_net
let guide d = d.d_guide
let nominal_supply d = d.d_supply
let node d name = Hashtbl.find_opt d.d_nodes name

type meter = { branches : int array; peak : float array  (** one cell: a float-only store *) }

let meter d sim =
  { branches = Array.of_list (List.map (E.branch_unknown sim) d.d_draw); peak = [| 0.0 |] }

(* a NaN draw sticks: no later finite one can hide it *)
let record m _t x =
  for k = 0 to Array.length m.branches - 1 do
    let v = Float.abs x.(m.branches.(k)) in
    if not (Float.is_nan m.peak.(0) || v <= m.peak.(0)) then m.peak.(0) <- v
  done

let peak m = m.peak.(0)

let drive t ~(reference : T.result) =
  let golden = t.golden in
  let times = reference.T.times and rows = reference.T.data in
  (* PWL knots from the reference samples (strictly increasing times:
     every one is an accepted step) *)
  let net =
    build golden t.devices t.boundary (fun g ->
        let u = E.node_unknown g in
        Cml_spice.Waveform.Pwl (simplify times (Array.map (fun row -> row.(u)) rows)))
  in
  let sim = E.compile net in
  let gsim = reference.T.sim in
  (* each cone unknown's golden unknown, or -1 for a boundary branch *)
  let src = Array.make (E.unknown_count sim) (-1) in
  for nd = 1 to N.node_count net - 1 do
    match N.find_node golden (N.node_name net nd) with
    | Some g -> src.(E.node_unknown nd) <- E.node_unknown g
    | None -> ()
  done;
  N.iter_devices net (function
    | N.Vsource { name; _ } | N.Vcvs { name; _ } -> (
        match E.branch_unknown gsim name with
        | g -> src.(E.branch_unknown sim name) <- g
        | exception Not_found -> ())
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vccs _ -> ());
  let project row = Array.map (fun g -> if g < 0 then 0.0 else row.(g)) src in
  let guide = { reference with T.data = Array.map project rows; sim } in
  let x = E.dc_from ~time:0.0 sim guide.T.data.(0) in
  let supply = match E.branch_unknown sim "vdd" with br -> Float.abs x.(br) | exception Not_found -> 0.0 in
  let nodes = Hashtbl.create 256 in
  for nd = 1 to N.node_count net - 1 do
    let name = N.node_name net nd in
    match owner name with
    | Some c when List.mem c t.cells -> Hashtbl.replace nodes name nd
    | Some _ | None -> ()
  done;
  {
    d_net = net;
    d_guide = guide;
    d_supply = supply;
    d_nodes = nodes;
    d_draw =
      List.filter_map
        (fun (g, ideal) -> if ideal then None else Some (drive_name (N.node_name golden g)))
        t.boundary;
  }

let plan golden ~reference defects =
  let cones =
    List.fold_left
      (fun acc d ->
        match defect_cells golden d with
        | [] -> acc
        | cells when List.mem_assoc cells acc -> acc
        | cells ->
            let c = extract golden ~cells in
            let driven =
              if selected c then
                match drive c ~reference with d -> Some d | exception E.No_convergence _ -> None
              else None
            in
            (cells, driven) :: acc)
      [] defects
  in
  fun d -> Option.join (List.assoc_opt (defect_cells golden d) cones)
