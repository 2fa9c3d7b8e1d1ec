type node = int

let gnd = 0

type device =
  | Resistor of { name : string; n1 : node; n2 : node; r : float }
  | Capacitor of { name : string; n1 : node; n2 : node; c : float }
  | Diode of { name : string; anode : node; cathode : node; model : Models.diode }
  | Bjt of {
      name : string;
      collector : node;
      base : node;
      emitters : node array;
      model : Models.bjt;
    }
  | Vsource of { name : string; npos : node; nneg : node; wave : Waveform.t }
  | Isource of { name : string; npos : node; nneg : node; wave : Waveform.t }
  | Vcvs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gain : float }
  | Vccs of { name : string; npos : node; nneg : node; cpos : node; cneg : node; gm : float }

type t = {
  mutable devs : device array;
  mutable ndev : int;
  node_ids : (string, int) Hashtbl.t;
  mutable node_names : string array;
  mutable nnodes : int;
  dev_index : (string, int) Hashtbl.t;
  mutable gensym : int;
  mutable nodeset : float array;
      (* per node id, its nodeset voltage, NaN where unset; [||] when
         the netlist has none *)
}

let create () =
  let t =
    {
      devs = Array.make 16 (Resistor { name = ""; n1 = 0; n2 = 0; r = 0.0 });
      ndev = 0;
      node_ids = Hashtbl.create 64;
      node_names = Array.make 16 "";
      nnodes = 1;
      dev_index = Hashtbl.create 64;
      gensym = 0;
      nodeset = [||];
    }
  in
  Hashtbl.replace t.node_ids "0" 0;
  t.node_names.(0) <- "0";
  t

let copy t =
  {
    devs = Array.copy t.devs;
    ndev = t.ndev;
    node_ids = Hashtbl.copy t.node_ids;
    node_names = Array.copy t.node_names;
    nnodes = t.nnodes;
    dev_index = Hashtbl.copy t.dev_index;
    gensym = t.gensym;
    nodeset = Array.copy t.nodeset;
  }

let node t name =
  match Hashtbl.find_opt t.node_ids name with
  | Some id -> id
  | None ->
      let id = t.nnodes in
      if id = Array.length t.node_names then begin
        let bigger = Array.make (2 * id) "" in
        Array.blit t.node_names 0 bigger 0 id;
        t.node_names <- bigger
      end;
      t.node_names.(id) <- name;
      t.nnodes <- id + 1;
      Hashtbl.replace t.node_ids name id;
      id

let fresh_node t prefix =
  let rec try_next () =
    t.gensym <- t.gensym + 1;
    let name = Printf.sprintf "%s#%d" prefix t.gensym in
    if Hashtbl.mem t.node_ids name then try_next () else node t name
  in
  try_next ()

let node_count t = t.nnodes

let node_name t id =
  assert (id >= 0 && id < t.nnodes);
  t.node_names.(id)

let find_node t name = Hashtbl.find_opt t.node_ids name

let set_nodeset t nd v =
  if nd <= 0 || nd >= t.nnodes then
    invalid_arg (Printf.sprintf "Netlist.set_nodeset: no node %d" nd);
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Netlist.set_nodeset: non-finite value %g" v);
  let len = Array.length t.nodeset in
  if nd >= len then begin
    let bigger = Array.make (Array.length t.node_names) Float.nan in
    Array.blit t.nodeset 0 bigger 0 len;
    t.nodeset <- bigger
  end;
  t.nodeset.(nd) <- v

let clear_nodeset t = t.nodeset <- [||]

let nodeset t =
  let out = ref [] in
  for nd = min (Array.length t.nodeset) t.nnodes - 1 downto 1 do
    let v = t.nodeset.(nd) in
    if not (Float.is_nan v) then out := (nd, v) :: !out
  done;
  !out

let device_name = function
  | Resistor { name; _ }
  | Capacitor { name; _ }
  | Diode { name; _ }
  | Bjt { name; _ }
  | Vsource { name; _ }
  | Isource { name; _ }
  | Vcvs { name; _ }
  | Vccs { name; _ } -> name

let add_device t d =
  let name = device_name d in
  if Hashtbl.mem t.dev_index name then invalid_arg ("duplicate device name: " ^ name);
  if t.ndev = Array.length t.devs then begin
    let bigger = Array.make (2 * t.ndev) d in
    Array.blit t.devs 0 bigger 0 t.ndev;
    t.devs <- bigger
  end;
  t.devs.(t.ndev) <- d;
  Hashtbl.replace t.dev_index name t.ndev;
  t.ndev <- t.ndev + 1

let resistor t ~name n1 n2 r = add_device t (Resistor { name; n1; n2; r })

let capacitor t ~name n1 n2 c = add_device t (Capacitor { name; n1; n2; c })

let diode t ~name ?(model = Models.default_diode) ~anode ~cathode () =
  add_device t (Diode { name; anode; cathode; model })

let bjt t ~name ?(model = Models.default_bjt) ~c ~b ~e () =
  add_device t (Bjt { name; collector = c; base = b; emitters = [| e |]; model })

let bjt_multi t ~name ?(model = Models.default_bjt) ~c ~b ~emitters () =
  if Array.length emitters = 0 then invalid_arg "bjt_multi: no emitters";
  add_device t (Bjt { name; collector = c; base = b; emitters = Array.copy emitters; model })

let vsource t ~name ~pos ~neg wave = add_device t (Vsource { name; npos = pos; nneg = neg; wave })

let isource t ~name ~pos ~neg wave = add_device t (Isource { name; npos = pos; nneg = neg; wave })

let vcvs t ~name ~pos ~neg ~cpos ~cneg gain =
  add_device t (Vcvs { name; npos = pos; nneg = neg; cpos; cneg; gain })

let vccs t ~name ~pos ~neg ~cpos ~cneg gm =
  add_device t (Vccs { name; npos = pos; nneg = neg; cpos; cneg; gm })

let device_count t = t.ndev

let devices t = Array.to_list (Array.sub t.devs 0 t.ndev)

let iter_devices t f =
  for i = 0 to t.ndev - 1 do
    f t.devs.(i)
  done

(* Same kind, same name and the same node on every terminal. *)
let same_site d d' =
  String.equal (device_name d) (device_name d')
  &&
  match (d, d') with
  | Resistor { n1; n2; _ }, Resistor { n1 = n1'; n2 = n2'; _ }
  | Capacitor { n1; n2; _ }, Capacitor { n1 = n1'; n2 = n2'; _ }
  | Diode { anode = n1; cathode = n2; _ }, Diode { anode = n1'; cathode = n2'; _ }
  | Vsource { npos = n1; nneg = n2; _ }, Vsource { npos = n1'; nneg = n2'; _ }
  | Isource { npos = n1; nneg = n2; _ }, Isource { npos = n1'; nneg = n2'; _ } ->
      n1 = n1' && n2 = n2'
  | Bjt { collector = c; base = b; emitters = e; _ }, Bjt { collector; base; emitters; _ } ->
      c = collector && b = base && (e == emitters || e = emitters)
  | ( Vcvs { npos = p; nneg = n; cpos = cp; cneg = cn; _ },
      Vcvs { npos; nneg; cpos; cneg; _ } )
  | ( Vccs { npos = p; nneg = n; cpos = cp; cneg = cn; _ },
      Vccs { npos; nneg; cpos; cneg; _ } ) ->
      p = npos && n = nneg && cp = cpos && cn = cneg
  | (Resistor _ | Capacitor _ | Diode _ | Bjt _ | Vsource _ | Isource _ | Vcvs _ | Vccs _), _ ->
      false

let map_devices t f =
  let out = copy t in
  for i = 0 to t.ndev - 1 do
    let d = f t.devs.(i) in
    if not (same_site t.devs.(i) d) then
      invalid_arg
        ("Netlist.map_devices: device " ^ device_name t.devs.(i)
       ^ " changed kind, name or terminals");
    out.devs.(i) <- d
  done;
  out

let get_device t name =
  match Hashtbl.find_opt t.dev_index name with
  | Some i -> t.devs.(i)
  | None -> raise Not_found

let mem_device t name = Hashtbl.mem t.dev_index name

let set_device t name d =
  match Hashtbl.find_opt t.dev_index name with
  | None -> raise Not_found
  | Some i ->
      let new_name = device_name d in
      if new_name <> name && Hashtbl.mem t.dev_index new_name then
        invalid_arg ("duplicate device name: " ^ new_name);
      Hashtbl.remove t.dev_index name;
      Hashtbl.replace t.dev_index new_name i;
      t.devs.(i) <- d

let remove_device t name =
  match Hashtbl.find_opt t.dev_index name with
  | None -> raise Not_found
  | Some i ->
      Hashtbl.remove t.dev_index name;
      (* shift the tail down to keep insertion order contiguous *)
      for k = i to t.ndev - 2 do
        t.devs.(k) <- t.devs.(k + 1);
        Hashtbl.replace t.dev_index (device_name t.devs.(k)) k
      done;
      t.ndev <- t.ndev - 1

let device_terminals = function
  | Resistor { n1; n2; _ } | Capacitor { n1; n2; _ } -> [ ("1", n1); ("2", n2) ]
  | Diode { anode; cathode; _ } -> [ ("a", anode); ("k", cathode) ]
  | Bjt { collector; base; emitters; _ } ->
      let em =
        if Array.length emitters = 1 then [ ("e", emitters.(0)) ]
        else Array.to_list (Array.mapi (fun i e -> (Printf.sprintf "e%d" i, e)) emitters)
      in
      ("c", collector) :: ("b", base) :: em
  | Vsource { npos; nneg; _ } | Isource { npos; nneg; _ } -> [ ("p", npos); ("n", nneg) ]
  | Vcvs { npos; nneg; cpos; cneg; _ } | Vccs { npos; nneg; cpos; cneg; _ } ->
      [ ("p", npos); ("n", nneg); ("cp", cpos); ("cn", cneg) ]

let rewire_terminal t ~dev ~terminal new_node =
  let d = get_device t dev in
  let rewired =
    match (d, terminal) with
    | Resistor r, "1" -> Resistor { r with n1 = new_node }
    | Resistor r, "2" -> Resistor { r with n2 = new_node }
    | Capacitor c, "1" -> Capacitor { c with n1 = new_node }
    | Capacitor c, "2" -> Capacitor { c with n2 = new_node }
    | Diode dd, "a" -> Diode { dd with anode = new_node }
    | Diode dd, "k" -> Diode { dd with cathode = new_node }
    | Bjt q, "c" -> Bjt { q with collector = new_node }
    | Bjt q, "b" -> Bjt { q with base = new_node }
    | Bjt q, "e" when Array.length q.emitters = 1 ->
        Bjt { q with emitters = [| new_node |] }
    | Bjt q, term
      when String.length term > 1 && term.[0] = 'e'
           && int_of_string_opt (String.sub term 1 (String.length term - 1)) <> None ->
        let i = int_of_string (String.sub term 1 (String.length term - 1)) in
        if i < 0 || i >= Array.length q.emitters then raise Not_found;
        let emitters = Array.copy q.emitters in
        emitters.(i) <- new_node;
        Bjt { q with emitters }
    | Vsource v, "p" -> Vsource { v with npos = new_node }
    | Vsource v, "n" -> Vsource { v with nneg = new_node }
    | Isource v, "p" -> Isource { v with npos = new_node }
    | Isource v, "n" -> Isource { v with nneg = new_node }
    | Vcvs v, "p" -> Vcvs { v with npos = new_node }
    | Vcvs v, "n" -> Vcvs { v with nneg = new_node }
    | Vcvs v, "cp" -> Vcvs { v with cpos = new_node }
    | Vcvs v, "cn" -> Vcvs { v with cneg = new_node }
    | Vccs v, "p" -> Vccs { v with npos = new_node }
    | Vccs v, "n" -> Vccs { v with nneg = new_node }
    | Vccs v, "cp" -> Vccs { v with cpos = new_node }
    | Vccs v, "cn" -> Vccs { v with cneg = new_node }
    | ( ( Resistor _ | Capacitor _ | Diode _ | Bjt _ | Vsource _ | Isource _ | Vcvs _
        | Vccs _ ),
        _ ) -> raise Not_found
  in
  set_device t dev rewired
