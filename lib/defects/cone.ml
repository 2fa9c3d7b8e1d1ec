module N = Cml_spice.Netlist
module E = Cml_spice.Engine
module T = Cml_spice.Transient
module W = Cml_spice.Waveform

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

(* A waveform with the opposite sign. *)
let negate = function
  | W.Dc v -> W.Dc (-.v)
  | W.Pulse p -> W.Pulse { p with v1 = -.p.v1; v2 = -.p.v2 }
  | W.Sine s -> W.Sine { s with offset = -.s.offset; ampl = -.s.ampl }
  | W.Pwl knots -> W.Pwl (Array.map (fun (t, v) -> (t, -.v)) knots)

(* Per node of the netlist, the voltage of the ideal voltage source
   that ties it to ground, if one does: the node is then {e ideal}. *)
let ties net =
  let tie = Array.make (N.node_count net) None in
  N.iter_devices net (function
    | N.Vsource { npos; nneg; wave; _ } ->
        if nneg = N.gnd then tie.(npos) <- Some wave;
        if npos = N.gnd then tie.(nneg) <- Some (negate wave)
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vcvs _ | N.Vccs _ -> ());
  tie

let is_tie = function
  | N.Vsource { npos; nneg; _ } -> npos = N.gnd || nneg = N.gnd
  | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vcvs _ | N.Vccs _ -> false

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
  tie : W.t option array;  (** per golden node, its ideal source's voltage *)
  roots : string list;
  depth : int option;  (** a cut's depth; [None] for the whole fanout closure *)
  cells : string list;  (** simulated cells: the cone's, or a cut's kept cells *)
  devices : N.device list;  (** the golden devices the netlist copies *)
  boundary : (N.node * bool) list;  (** golden node, ideal *)
  forced : N.node list;  (** a cut's fringe outputs, forced to the reference *)
  watched : N.node list;  (** a cut's cut nets: kept-cell nets the fringe reads *)
  unknowns : int;
  golden_unknowns : int;
}

(* The netlist: its devices on nodes of the same names, and each
   boundary net and fringe output forced by a source of waveform
   [wave]. *)
let build golden devices forced wave =
  let net = N.create () in
  let map nd = if nd = N.gnd then N.gnd else N.node net (N.node_name golden nd) in
  List.iter (fun d -> N.add_device net (remap map d)) devices;
  List.iter
    (fun nd ->
      N.vsource net ~name:(drive_name (N.node_name golden nd)) ~pos:(map nd) ~neg:N.gnd (wave nd))
    forced;
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

let cell_of d = owner (N.device_name d)
let net_owner golden nd = if nd = N.gnd then None else owner (N.node_name golden nd)

(* The fanout graph: the owner of every non-ideal net a device reads
   gains the device's cell as a reader. *)
let readers golden tie =
  let net_owner = net_owner golden in
  let readers = Hashtbl.create 256 in
  N.iter_devices golden (fun d ->
      match cell_of d with
      | None -> ()
      | Some c ->
          List.iter
            (fun nd ->
              match net_owner nd with
              | Some o when o <> c && tie.(nd) = None -> Hashtbl.add readers o c
              | Some _ | None -> ())
            (device_nodes d));
  readers

(* The netlist shape of the [kept] cells plus a [fringe]: every net
   they touch is owned by a kept cell, owned by a fringe cell (an
   output another cell reads is forced), a rail its ideal source
   drives, or a boundary net. *)
let assemble golden tie ~roots ~depth ~kept ~fringe =
  let net_owner = net_owner golden in
  let devices = N.devices golden in
  let member set d = match cell_of d with Some c -> Hashtbl.mem set c | None -> false in
  let owned set nd = match net_owner nd with Some o -> Hashtbl.mem set o | None -> false in
  let simulated = List.filter (fun d -> member kept d || member fringe d) devices in
  let touched = Array.make (N.node_count golden) false in
  List.iter (fun d -> List.iter (fun nd -> touched.(nd) <- true) (device_nodes d)) simulated;
  (* nets another cell than their owner touches in the golden netlist *)
  let read = Array.make (N.node_count golden) false in
  let fringe_reads = Array.make (N.node_count golden) false in
  List.iter
    (fun d ->
      List.iter
        (fun nd ->
          if nd <> N.gnd && net_owner nd <> cell_of d then begin
            read.(nd) <- true;
            if member fringe d then fringe_reads.(nd) <- true
          end)
        (device_nodes d))
    devices;
  let rail nd = nd <> N.gnd && net_owner nd = None && tie.(nd) <> None in
  let nets = List.init (N.node_count golden - 1) (fun i -> i + 1) in
  let boundary =
    List.filter_map
      (fun nd ->
        if touched.(nd) && not (owned kept nd || owned fringe nd || rail nd) then
          Some (nd, tie.(nd) <> None)
        else None)
      nets
  in
  let forced = List.filter (fun nd -> touched.(nd) && owned fringe nd && read.(nd)) nets in
  let watched = List.filter (fun nd -> owned kept nd && fringe_reads.(nd)) nets in
  let rail_source = function
    | N.Vsource { npos; nneg; _ } ->
        (npos = N.gnd && rail nneg && touched.(nneg)) || (nneg = N.gnd && rail npos && touched.(npos))
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vcvs _ | N.Vccs _ ->
        false
  in
  let devices = List.filter (fun d -> member kept d || member fringe d || rail_source d) devices in
  let net = build golden devices (List.map fst boundary @ forced) (fun _ -> W.Dc 0.0) in
  let cells =
    List.rev
      (List.fold_left
         (fun acc d ->
           match cell_of d with
           | Some c when Hashtbl.mem kept c && not (List.mem c acc) -> c :: acc
           | Some _ | None -> acc)
         [] devices)
  in
  {
    golden;
    tie;
    roots;
    depth;
    cells;
    devices;
    boundary;
    forced;
    watched;
    unknowns = unknown_count net;
    golden_unknowns = unknown_count golden;
  }

(* The cells within [depth] reader levels of [roots] (the roots are
   level 0), or their whole fanout closure when [depth] is [None], plus
   a fringe: every other cell that reads one of their nets, none for a
   closure. *)
let span golden tie roots ~depth =
  let readers = readers golden tie in
  let kept = Hashtbl.create 64 in
  let rec visit level cs =
    let fresh = List.filter (fun c -> not (Hashtbl.mem kept c)) (List.sort_uniq compare cs) in
    List.iter (fun c -> Hashtbl.replace kept c ()) fresh;
    let deeper = match depth with Some k -> level < k | None -> true in
    if fresh <> [] && deeper then
      visit (level + 1) (List.concat_map (Hashtbl.find_all readers) fresh)
  in
  visit 0 roots;
  let fringe = Hashtbl.create 16 in
  Hashtbl.iter
    (fun c () ->
      List.iter
        (fun r -> if not (Hashtbl.mem kept r) then Hashtbl.replace fringe r ())
        (Hashtbl.find_all readers c))
    kept;
  assemble golden tie ~roots ~depth ~kept ~fringe

let attacked golden ~cells =
  if cells = [] then invalid_arg "Cone.attacked: no cells";
  let tie = ties golden in
  (* the drivers of the attacked cells' non-ideal inputs, which a
     defect can load *)
  let drivers =
    List.concat_map
      (fun d ->
        match cell_of d with
        | Some c when List.mem c cells ->
            List.filter_map
              (fun nd -> if tie.(nd) = None then net_owner golden nd else None)
              (device_nodes d)
        | Some _ | None -> [])
      (N.devices golden)
  in
  span golden tie (cells @ drivers) ~depth:None

let active golden =
  let tie = ties golden in
  let toggles nd = match tie.(nd) with Some (W.Dc _) | None -> false | Some _ -> true in
  let roots =
    List.sort_uniq compare
      (List.filter_map
         (fun d ->
           if is_tie d || not (List.exists toggles (device_nodes d)) then None else cell_of d)
         (N.devices golden))
  in
  if roots = [] then None else Some (span golden tie roots ~depth:None)

let cut t ~depth = span t.golden t.tie t.roots ~depth:(Some depth)

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

type reference = {
  r_golden : N.t;
  r_sim : E.sim;  (** compiled from [r_golden]: the unknown layout of [r_dc] *)
  r_dc : float array;
  r_run : (N.t * T.result) option;  (** a dense run and the netlist it simulated *)
  r_lock : Mutex.t;
  mutable r_full : T.result option;  (** {!full_guide}, once built *)
}

let operating_point golden sim x =
  {
    r_golden = golden;
    r_sim = sim;
    r_dc = x;
    r_run = None;
    r_lock = Mutex.create ();
    r_full = None;
  }

let with_run r net run = { r with r_run = Some (net, run); r_lock = Mutex.create (); r_full = None }
let of_run golden run = with_run (operating_point golden run.T.sim run.T.data.(0)) golden run

(* Where each unknown of [sim] (compiled from [net], on golden names)
   takes its reference value: column [col.(i)] of the run's rows, or
   the constant [const.(i)] when [col.(i) < 0] — the DC value of a
   golden unknown the run does not cover, 0 for a source no golden
   device has (a boundary drive). *)
let projection r sim net =
  let n = E.unknown_count sim in
  let col = Array.make n (-1) and const = Array.make n 0.0 in
  let run_node name =
    match r.r_run with
    | Some (rnet, _) -> Option.map E.node_unknown (N.find_node rnet name)
    | None -> None
  in
  let run_branch name =
    match r.r_run with
    | Some (_, run) -> (
        match E.branch_unknown run.T.sim name with k -> Some k | exception Not_found -> None)
    | None -> None
  in
  let set u run golden =
    match run with
    | Some k -> col.(u) <- k
    | None -> Option.iter (fun g -> const.(u) <- r.r_dc.(g)) golden
  in
  for nd = 1 to N.node_count net - 1 do
    let name = N.node_name net nd in
    set (E.node_unknown nd) (run_node name)
      (Option.map E.node_unknown (N.find_node r.r_golden name))
  done;
  N.iter_devices net (function
    | N.Vsource { name; _ } | N.Vcvs { name; _ } -> (
        match E.branch_unknown r.r_sim name with
        | g -> set (E.branch_unknown sim name) (run_branch name) (Some g)
        | exception Not_found -> ())
    | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vccs _ -> ());
  fun row -> Array.init n (fun i -> if col.(i) >= 0 then row.(col.(i)) else const.(i))

(* The guide for [sim]: the run projected onto its unknowns. *)
let guide_on r sim net =
  Option.map
    (fun (_, run) ->
      let project = projection r sim net in
      { run with T.data = Array.map project run.T.data; sim })
    r.r_run

let full_guide r =
  match r.r_run with
  | None -> invalid_arg "Cone.full_guide: no run"
  | Some (net, run) when net == r.r_golden -> run
  | Some _ ->
      Mutex.protect r.r_lock (fun () ->
          match r.r_full with
          | Some g -> g
          | None ->
              let g = Option.get (guide_on r r.r_sim r.r_golden) in
              r.r_full <- Some g;
              g)

(* The run's column of golden net [g], when the run has the net. *)
let column r g =
  match r.r_run with
  | Some (rnet, run) ->
      Option.map
        (fun nd -> (run.T.times, T.node_trace run nd))
        (N.find_node rnet (N.node_name r.r_golden g))
  | None -> None

let samples r g =
  match (column r g, r.r_run) with
  | Some s, _ -> s
  | None, Some (_, run) -> (run.T.times, Array.map (fun _ -> r.r_dc.(E.node_unknown g)) run.T.times)
  | None, None -> invalid_arg "Cone.samples: no run"

(* A boundary net's drive: an ideal net keeps its own source; any
   other net follows the run when the run has it, else holds its DC
   value ({!samples}' rule). *)
let boundary_wave t r g =
  match (t.tie.(g), column r g) with
  | Some w, _ -> w
  | None, Some (times, values) -> W.Pwl (simplify times values)
  | None, None -> W.Dc r.r_dc.(E.node_unknown g)

type driven = {
  d_net : N.t;
  d_depth : int option;  (** a cut's depth; [None] for a cone *)
  d_guide : T.result option;
  d_start : float array;
  d_supply : float;
  d_nodes : (string, N.node) Hashtbl.t;  (** nets of the simulated cells, by name *)
  d_held : string list;  (** sources of the non-ideal boundary nets *)
  d_watched : (N.node * W.t) list;  (** a cut's cut nets and their reference waves *)
}

let netlist d = d.d_net
let depth d = d.d_depth
let guide d = d.d_guide
let start d = Array.copy d.d_start
let nominal_supply d = d.d_supply
let node d name = Hashtbl.find_opt d.d_nodes name

let drive t ~reference:r =
  let golden = t.golden in
  let net = build golden t.devices (List.map fst t.boundary @ t.forced) (boundary_wave t r) in
  let sim = E.compile net in
  let seed =
    projection r sim net (match r.r_run with Some (_, run) -> run.T.data.(0) | None -> r.r_dc)
  in
  let x = E.dc_from ~time:0.0 sim seed in
  let held =
    List.filter_map
      (fun (g, ideal) -> if ideal then None else Some (drive_name (N.node_name golden g)))
      t.boundary
  in
  (* the supply share: the [vdd] branch plus every held source, which
     delivers what the net's real driver would draw from the rail *)
  let supply =
    Float.abs
      (List.fold_left
         (fun acc name ->
           match E.branch_unknown sim name with br -> acc +. x.(br) | exception Not_found -> acc)
         0.0 ("vdd" :: held))
  in
  let nodes = Hashtbl.create 256 in
  for nd = 1 to N.node_count net - 1 do
    let name = N.node_name net nd in
    match owner name with
    | Some c when List.mem c t.cells -> Hashtbl.replace nodes name nd
    | Some _ | None -> ()
  done;
  let cut_net g = Option.get (N.find_node net (N.node_name golden g)) in
  {
    d_net = net;
    d_depth = t.depth;
    d_guide = guide_on r sim net;
    d_start = x;
    d_supply = supply;
    d_nodes = nodes;
    d_held = held;
    d_watched = List.map (fun g -> (cut_net g, boundary_wave t r g)) t.watched;
  }

exception Deviation of float * float

type monitor = {
  supply : int array;  (** the [vdd] branch, then the held sources' *)
  held : int array;  (** the held sources' branches *)
  watched : (int * W.t) array;  (** a cut's cut nets and their reference waves *)
  epsilon : float;
  times : Cml_numerics.Fbuf.t;
  total : Cml_numerics.Fbuf.t;  (** the supply sum at each step *)
  peaks : float array;  (** [| boundary draw; cut-net deviation |]: a float-only store *)
}

let monitor ?driven ?(epsilon = infinity) sim =
  let branch name = E.branch_unknown sim name in
  let vdd = match branch "vdd" with br -> [ br ] | exception Not_found -> [] in
  let held, watched =
    match driven with
    | None -> ([], [])
    | Some d ->
        ( List.map branch d.d_held,
          List.map (fun (nd, w) -> (E.node_unknown nd, w)) d.d_watched )
  in
  {
    supply = Array.of_list (vdd @ held);
    held = Array.of_list held;
    watched = Array.of_list watched;
    epsilon;
    times = Cml_numerics.Fbuf.create ();
    total = Cml_numerics.Fbuf.create ();
    peaks = [| 0.0; 0.0 |];
  }

let observe m t x =
  let sum = ref 0.0 in
  for k = 0 to Array.length m.supply - 1 do
    sum := !sum +. x.(m.supply.(k))
  done;
  Cml_numerics.Fbuf.push m.times t;
  Cml_numerics.Fbuf.push m.total !sum;
  (* a NaN draw sticks: no later finite one can hide it *)
  for k = 0 to Array.length m.held - 1 do
    let v = Float.abs x.(m.held.(k)) in
    if not (Float.is_nan m.peaks.(0) || v <= m.peaks.(0)) then m.peaks.(0) <- v
  done;
  Array.iter
    (fun (u, w) ->
      let dv = Float.abs (x.(u) -. W.value w t) in
      if not (dv <= m.epsilon) then raise (Deviation (t, dv));
      if dv > m.peaks.(1) then m.peaks.(1) <- dv)
    m.watched

let draw m = m.peaks.(0)
let deviation m = m.peaks.(1)

let supply m =
  if m.supply = [||] then raise Not_found
  else (Cml_numerics.Fbuf.to_array m.times, Cml_numerics.Fbuf.to_array m.total)

(* The cut a cone variant tries first: the cells within this many
   reader levels of the attacked cells (and their drivers). *)
let cut_depth = 1

let plan r defects =
  let golden = r.r_golden in
  let solved t =
    match drive t ~reference:r with d -> Some d | exception E.No_convergence _ -> None
  in
  (* the cone's DC solve gates both rungs; the cut is tried first *)
  let rungs cells =
    let c = attacked golden ~cells in
    match if selected c then solved c else None with
    | None -> []
    | Some cone ->
        let k = cut c ~depth:cut_depth in
        (if k.unknowns < c.unknowns then Option.to_list (solved k) else []) @ [ cone ]
  in
  let plans =
    List.fold_left
      (fun acc d ->
        match defect_cells golden d with
        | [] -> acc
        | cells when List.mem_assoc cells acc -> acc
        | cells -> (cells, rungs cells) :: acc)
      [] defects
  in
  fun d -> Option.value ~default:[] (List.assoc_opt (defect_cells golden d) plans)
