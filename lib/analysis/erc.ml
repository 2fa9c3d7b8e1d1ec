module N = Cml_spice.Netlist
module D = Diagnostic

type config = {
  swing_min : float;
  swing_max : float;
  load_tolerance : float;
}

let default_config = { swing_min = 0.12; swing_max = 0.45; load_tolerance = 1e-3 }

let cell_of_device name =
  match String.rindex_opt name '.' with
  | None -> None
  | Some i -> Some (String.sub name 0 i)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* structural rules *)

let check_values net =
  let out = ref [] in
  N.iter_devices net (fun d ->
      match d with
      | N.Resistor { name; r; _ } when r <= 0.0 ->
          out :=
            D.make ~rule:Rules.erc_nonpositive_resistance D.Error (D.Device name)
              "resistance %g ohm is not positive" r
            :: !out
      | N.Capacitor { name; c; _ } when c < 0.0 ->
          out :=
            D.make ~rule:Rules.erc_negative_capacitance D.Error (D.Device name)
              "capacitance %g F is negative" c
            :: !out
      | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Vsource _ | N.Isource _
      | N.Vcvs _ | N.Vccs _ -> ());
  !out

let check_duplicate_names net =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  N.iter_devices net (fun d ->
      let name = N.device_name d in
      let key = String.lowercase_ascii name in
      match Hashtbl.find_opt seen key with
      | None -> Hashtbl.replace seen key name
      | Some first when first <> name ->
          out :=
            D.make ~rule:Rules.erc_duplicate_name D.Warning (D.Device name)
              "name collides with %S up to case (SPICE decks are case-insensitive)" first
            :: !out
      | Some _ ->
          (* an exact duplicate cannot be constructed through
             [Netlist.add_device], but a hand-edited deck parser
             could feed one in the future — keep the guard *)
          out :=
            D.make ~rule:Rules.erc_duplicate_name D.Warning (D.Device name)
              "duplicate device name" :: !out);
  List.rev !out

(* degree of every node = number of device terminals landing on it *)
let terminal_degrees net =
  let deg = Array.make (N.node_count net) 0 in
  N.iter_devices net (fun d ->
      List.iter (fun (_, nd) -> deg.(nd) <- deg.(nd) + 1) (N.device_terminals d));
  deg

let check_floating net deg =
  let out = ref [] in
  for nd = N.node_count net - 1 downto 1 do
    if deg.(nd) < 2 then
      out :=
        D.make ~rule:Rules.erc_floating_node D.Error (D.Node (N.node_name net nd))
          "connects to %d device terminal(s); a real node needs at least 2" deg.(nd)
        :: !out
  done;
  !out

(* DC conduction edges: resistors, voltage sources, diodes, BJT
   junctions and VCVS outputs conduct at DC; capacitors and current
   sources (independent or controlled) do not. *)
let dc_edges d =
  match d with
  | N.Resistor { n1; n2; _ } -> [ (n1, n2) ]
  | N.Vsource { npos; nneg; _ } -> [ (npos, nneg) ]
  | N.Vcvs { npos; nneg; _ } -> [ (npos, nneg) ]
  | N.Diode { anode; cathode; _ } -> [ (anode, cathode) ]
  | N.Bjt { collector; base; emitters; _ } ->
      (collector, base) :: Array.to_list (Array.map (fun e -> (base, e)) emitters)
  | N.Capacitor _ | N.Isource _ | N.Vccs _ -> []

let check_dc_paths net deg =
  let n = N.node_count net in
  let adj = Array.make n [] in
  N.iter_devices net (fun d ->
      List.iter
        (fun (a, b) ->
          adj.(a) <- b :: adj.(a);
          adj.(b) <- a :: adj.(b))
        (dc_edges d));
  let reached = Array.make n false in
  let rec visit nd =
    if not reached.(nd) then begin
      reached.(nd) <- true;
      List.iter visit adj.(nd)
    end
  in
  visit N.gnd;
  let out = ref [] in
  for nd = n - 1 downto 1 do
    (* degree-<2 nodes are already flagged as floating; repeating
       them here would double-report the same defect *)
    if (not reached.(nd)) && deg.(nd) >= 2 then
      out :=
        D.make ~rule:Rules.erc_no_dc_path D.Error (D.Node (N.node_name net nd))
          "no DC conduction path to ground (operating point is undefined)"
        :: !out
  done;
  !out

let check_vsource_loops net =
  let n = N.node_count net in
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let out = ref [] in
  N.iter_devices net (fun d ->
      match d with
      | N.Vsource { name; npos; nneg; _ } | N.Vcvs { name; npos; nneg; _ } ->
          let a = find npos and b = find nneg in
          if a = b then
            out :=
              D.make ~rule:Rules.erc_vsource_loop D.Error (D.Device name)
                "closes a loop of ideal voltage sources (the branch current is unbounded)"
              :: !out
          else parent.(a) <- b
      | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Isource _ | N.Vccs _ -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* CML design rules *)

type cell_view = {
  mutable bjts : (string * int * int * int array) list;  (** name, c, b, emitters *)
  mutable resistors : (string * int * int * float) list;  (** name, n1, n2, r *)
}

let cells_of net =
  let cells = Hashtbl.create 64 in
  let view cell =
    match Hashtbl.find_opt cells cell with
    | Some v -> v
    | None ->
        let v = { bjts = []; resistors = [] } in
        Hashtbl.replace cells cell v;
        v
  in
  N.iter_devices net (fun d ->
      match cell_of_device (N.device_name d) with
      | None -> ()
      | Some cell -> (
          match d with
          | N.Bjt { name; collector; base; emitters; _ } ->
              (view cell).bjts <- (name, collector, base, emitters) :: (view cell).bjts
          | N.Resistor { name; n1; n2; r } ->
              (view cell).resistors <- (name, n1, n2, r) :: (view cell).resistors
          | N.Capacitor _ | N.Diode _ | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Vccs _ -> ()));
  cells

(* the differential load pair of a cell: resistors [<cell>.r1] /
   [<cell>.r2] sharing a rail node, with both far ends landing on
   collectors of the cell's own transistors.  The structural
   conditions keep the rule away from look-alikes such as the
   read-out's feedback divider (also named r1/r2, intentionally
   different values). *)
let load_pair cell v =
  let named suffix =
    List.find_opt (fun (name, _, _, _) -> name = cell ^ suffix) v.resistors
  in
  match (named ".r1", named ".r2") with
  | Some (n1, a1, b1, r1), Some (n2, a2, b2, r2) ->
      let collectors = List.map (fun (_, c, _, _) -> c) v.bjts in
      let far shared (x, y) = if x = shared then Some y else if y = shared then Some x else None in
      let pair shared =
        match (far shared (a1, b1), far shared (a2, b2)) with
        | Some f1, Some f2
          when f1 <> f2 && List.mem f1 collectors && List.mem f2 collectors ->
            Some ((n1, r1), (n2, r2))
        | _ -> None
      in
      let candidates =
        List.filter (fun s -> s = a2 || s = b2) [ a1; b1 ]
      in
      List.fold_left (fun acc s -> match acc with Some _ -> acc | None -> pair s) None candidates
  | _ -> None

let check_load_match cfg cells =
  Hashtbl.fold
    (fun cell v acc ->
      match load_pair cell v with
      | Some ((name1, r1), (name2, r2)) ->
          let mismatch = Float.abs (r1 -. r2) /. Float.max r1 (Float.max r2 epsilon_float) in
          if mismatch > cfg.load_tolerance then
            D.make ~rule:Rules.cml_mismatched_loads D.Error (D.Cell cell)
              "differential load resistors differ: %s = %g ohm, %s = %g ohm (%.1f%% mismatch \
               skews the output swing)"
              name1 r1 name2 r2 (100.0 *. mismatch)
            :: acc
          else acc
      | None -> acc)
    cells []

(* a common-emitter node fed by two or more emitters of one cell and
   by nothing else has lost its tail current source (the paper's Q3) *)
let check_tail_sources net =
  let n = N.node_count net in
  let emitters = Array.make n [] in
  let other = Array.make n 0 in
  N.iter_devices net (fun d ->
      let name = N.device_name d in
      List.iter
        (fun (term, nd) ->
          let is_emitter =
            match d with N.Bjt _ -> term = "e" || (String.length term > 1 && term.[0] = 'e') | _ -> false
          in
          if is_emitter then emitters.(nd) <- name :: emitters.(nd)
          else other.(nd) <- other.(nd) + 1)
        (N.device_terminals d));
  let out = ref [] in
  for nd = 1 to n - 1 do
    match emitters.(nd) with
    | first :: _ :: _ when other.(nd) = 0 ->
        let cell = match cell_of_device first with Some c -> c | None -> first in
        out :=
          D.make ~rule:Rules.cml_missing_tail D.Error (D.Cell cell)
            "common-emitter node %s has no tail current source (emitters: %s)"
            (N.node_name net nd)
            (String.concat ", " (List.rev emitters.(nd)))
          :: !out
    | _ -> ()
  done;
  !out

(* DC value of the source driving a node, if any *)
let dc_drive net nd =
  let found = ref None in
  N.iter_devices net (fun d ->
      match d with
      | N.Vsource { npos; nneg; wave = Cml_spice.Waveform.Dc v; _ } ->
          if npos = nd && nneg = N.gnd then found := Some v
      | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Vsource _ | N.Isource _
      | N.Vcvs _ | N.Vccs _ -> ());
  !found

(* swing budget: tail current (from the bias-line drive and the tail
   transistor's saturation current) times the load resistance *)
let check_swing cfg net cells =
  Hashtbl.fold
    (fun cell v acc ->
      match load_pair cell v with
      | None -> acc
      | Some ((_, r1), (_, r2)) -> (
          let tail =
            List.find_opt
              (fun (_, _, base, emitters) ->
                Array.length emitters = 1 && emitters.(0) = N.gnd && dc_drive net base <> None)
              v.bjts
          in
          match tail with
          | None -> acc
          | Some (tail_name, _, base, _) -> (
              match (dc_drive net base, N.get_device net tail_name) with
              | Some vbias, N.Bjt { model; _ } ->
                  let i_tail, _ =
                    Cml_spice.Engine.junction_current ~is:model.Cml_spice.Models.q_is
                      ~nvt:Cml_spice.Models.boltzmann_vt vbias
                  in
                  let swing = i_tail *. Float.max r1 r2 in
                  if swing < cfg.swing_min || swing > cfg.swing_max then
                    D.make ~rule:Rules.cml_swing_window D.Warning (D.Cell cell)
                      "output swing budget %.0f mV (i_tail %.2f mA via %s into %g ohm) is \
                       outside the nominal %.0f-%.0f mV window"
                      (1e3 *. swing) (1e3 *. i_tail) tail_name (Float.max r1 r2)
                      (1e3 *. cfg.swing_min) (1e3 *. cfg.swing_max)
                    :: acc
                  else acc
              | _ -> acc)))
    cells []

(* in an instrumented netlist every shared-readout sensor hangs its
   base on the vtest rail; a sensor wired elsewhere silently never
   engages in test mode *)
let check_vtest_routing net =
  match (N.find_node net "vtest", N.mem_device net "vtest") with
  | Some rail, true ->
      let out = ref [] in
      N.iter_devices net (fun d ->
          match d with
          | N.Bjt { name; base; _ }
            when starts_with ~prefix:"ro" name && contains ~sub:".det" name && base <> rail ->
              out :=
                D.make ~rule:Rules.cml_vtest_unrouted D.Error (D.Device name)
                  "sensor base is on node %s, not on the vtest rail; it will never engage in \
                   test mode"
                  (N.node_name net base)
                :: !out
          | N.Resistor _ | N.Capacitor _ | N.Diode _ | N.Bjt _ | N.Vsource _ | N.Isource _
          | N.Vcvs _ | N.Vccs _ -> ());
      List.rev !out
  | _ -> []

(* ------------------------------------------------------------------ *)

let check ?(config = default_config) net =
  let deg = terminal_degrees net in
  let cells = cells_of net in
  List.concat
    [
      check_values net;
      check_duplicate_names net;
      check_floating net deg;
      check_dc_paths net deg;
      check_vsource_loops net;
      check_load_match config cells;
      check_tail_sources net;
      check_swing config net cells;
      check_vtest_routing net;
    ]
