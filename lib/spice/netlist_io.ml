exception Parse_error of { line : int; message : string }

let fail line fmt = Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* values *)

let suffixes =
  [
    ("t", 1e12);
    ("g", 1e9);
    ("meg", 1e6);
    ("k", 1e3);
    ("m", 1e-3);
    ("u", 1e-6);
    ("n", 1e-9);
    ("p", 1e-12);
    ("f", 1e-15);
  ]

let parse_value token =
  let token = String.lowercase_ascii token in
  let n = String.length token in
  if n = 0 then None
  else begin
    let split_at k = (String.sub token 0 k, String.sub token k (n - k)) in
    (* longest suffix first so "meg" wins over "m" *)
    let rec digits_end k =
      if k >= n then k
      else begin
        match token.[k] with
        | '0' .. '9' | '.' | '-' | '+' -> digits_end (k + 1)
        | 'e' when k > 0 && k + 1 < n && (match token.[k + 1] with '0' .. '9' | '-' | '+' -> true | _ -> false)
          -> digits_end (k + 2)
        | _ -> k
      end
    in
    let k = digits_end 0 in
    if k = 0 then None
    else begin
      let num, suffix = split_at k in
      (* a literal that overflows (1e999, 1e300t) is no value either *)
      let finite v = if Float.is_finite v then Some v else None in
      match float_of_string_opt num with
      | None -> None
      | Some v -> (
          if suffix = "" then finite v
          else
            match List.assoc_opt suffix suffixes with
            | Some mult -> finite (v *. mult)
            | None -> None)
    end
  end

(* a suffix is only used when multiplying back reproduces the exact
   double, so parsing the output always returns the original value *)
let format_value v =
  let rec try_suffixes = function
    | [] -> Printf.sprintf "%.17g" v
    | (s, mult) :: rest ->
        let scaled = v /. mult in
        if Float.abs scaled >= 1.0 && Float.abs scaled < 1000.0
           && Float.round scaled = scaled
           && Float.round scaled *. mult = v
        then Printf.sprintf "%.0f%s" scaled s
        else try_suffixes rest
  in
  if v = 0.0 then "0"
  else if Float.abs v >= 1.0 && Float.abs v < 1000.0 then Printf.sprintf "%.17g" v
  else try_suffixes suffixes

(* ------------------------------------------------------------------ *)
(* printing *)

let waveform_to_string = function
  | Waveform.Dc v -> Printf.sprintf "DC %s" (format_value v)
  | Waveform.Pulse { v1; v2; delay; rise; fall; width; period } ->
      Printf.sprintf "PULSE(%s %s %s %s %s %s %s)" (format_value v1) (format_value v2)
        (format_value delay) (format_value rise) (format_value fall) (format_value width)
        (format_value period)
  | Waveform.Sine { offset; ampl; freq; delay; phase } ->
      Printf.sprintf "SIN(%s %s %s %s %s)" (format_value offset) (format_value ampl)
        (format_value freq) (format_value delay) (format_value phase)
  | Waveform.Pwl knots ->
      let pairs =
        Array.to_list
          (Array.map (fun (t, v) -> Printf.sprintf "%s %s" (format_value t) (format_value v)) knots)
      in
      Printf.sprintf "PWL(%s)" (String.concat " " pairs)

let bjt_params (m : Models.bjt) =
  let d = Models.default_bjt in
  let p name v dv = if v <> dv then [ Printf.sprintf "%s=%s" name (format_value v) ] else [] in
  String.concat " "
    (p "IS" m.Models.q_is d.Models.q_is
    @ p "BF" m.Models.q_bf d.Models.q_bf
    @ p "BR" m.Models.q_br d.Models.q_br
    @ p "CJE" m.Models.q_cje d.Models.q_cje
    @ p "CJC" m.Models.q_cjc d.Models.q_cjc)

let diode_params (m : Models.diode) =
  let d = Models.default_diode in
  let p name v dv = if v <> dv then [ Printf.sprintf "%s=%s" name (format_value v) ] else [] in
  String.concat " "
    (p "IS" m.Models.d_is d.Models.d_is
    @ p "N" m.Models.d_n d.Models.d_n
    @ p "CJ" m.Models.d_cj d.Models.d_cj)

let to_string net =
  let b = Buffer.create 4096 in
  let node nd = Netlist.node_name net nd in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  line "* netlist exported by cml-dft";
  Netlist.iter_devices net (fun d ->
      match d with
      | Netlist.Resistor { name; n1; n2; r } ->
          line "R %s %s %s %s" name (node n1) (node n2) (format_value r)
      | Netlist.Capacitor { name; n1; n2; c } ->
          line "C %s %s %s %s" name (node n1) (node n2) (format_value c)
      | Netlist.Diode { name; anode; cathode; model } ->
          let params = diode_params model in
          line "D %s %s %s%s" name (node anode) (node cathode)
            (if params = "" then "" else " " ^ params)
      | Netlist.Bjt { name; collector; base; emitters; model } ->
          let params = bjt_params model in
          line "Q %s %s %s %s%s" name (node collector) (node base)
            (String.concat " " (Array.to_list (Array.map node emitters)))
            (if params = "" then "" else " " ^ params)
      | Netlist.Vsource { name; npos; nneg; wave } ->
          line "V %s %s %s %s" name (node npos) (node nneg) (waveform_to_string wave)
      | Netlist.Isource { name; npos; nneg; wave } ->
          line "I %s %s %s %s" name (node npos) (node nneg) (waveform_to_string wave)
      | Netlist.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
          line "E %s %s %s %s %s %s" name (node npos) (node nneg) (node cpos) (node cneg)
            (format_value gain)
      | Netlist.Vccs { name; npos; nneg; cpos; cneg; gm } ->
          line "G %s %s %s %s %s %s" name (node npos) (node nneg) (node cpos) (node cneg)
            (format_value gm));
  (* nodeset cards in the order the device cards first name their
     nodes, which is the node order of the re-read netlist; a node no
     device names cannot be read back, so it is left out *)
  let set = Array.make (Netlist.node_count net) Float.nan in
  List.iter (fun (nd, v) -> set.(nd) <- v) (Netlist.nodeset net);
  Netlist.iter_devices net (fun d ->
      List.iter
        (fun (_, nd) ->
          if not (Float.is_nan set.(nd)) then begin
            line ".nodeset V(%s)=%s" (node nd) (format_value set.(nd));
            set.(nd) <- Float.nan
          end)
        (Netlist.device_terminals d));
  Buffer.add_string b ".end\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* parsing *)

(* split into logical lines, folding '+' continuations, stripping
   comments; returns (line_number, tokens) *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let strip_comment s =
    match String.index_opt s ';' with Some i -> String.sub s 0 i | None -> s
  in
  let numbered = List.mapi (fun i s -> (i + 1, strip_comment s)) raw in
  let is_blank s = String.trim s = "" in
  let is_comment s =
    let t = String.trim s in
    String.length t > 0 && t.[0] = '*'
  in
  let folded =
    List.fold_left
      (fun acc (n, s) ->
        if is_blank s || is_comment s then acc
        else begin
          let t = String.trim s in
          if String.length t > 0 && t.[0] = '+' then begin
            match acc with
            | (n0, s0) :: rest -> (n0, s0 ^ " " ^ String.sub t 1 (String.length t - 1)) :: rest
            | [] -> fail n "continuation line with nothing to continue"
          end
          else (n, t) :: acc
        end)
      [] numbered
  in
  List.rev folded

(* tokenize one card: parentheses groups like PULSE(..) become a
   function token plus its arguments *)
let tokenize line s =
  let n = String.length s in
  let out = ref [] in
  let buf = Stdlib.Buffer.create 16 in
  let flush () =
    if Stdlib.Buffer.length buf > 0 then begin
      out := Stdlib.Buffer.contents buf :: !out;
      Stdlib.Buffer.clear buf
    end
  in
  let rec go i =
    if i >= n then flush ()
    else begin
      match s.[i] with
      | ' ' | '\t' | ',' | '\r' ->
          flush ();
          go (i + 1)
      | '(' | ')' ->
          flush ();
          out := String.make 1 s.[i] :: !out;
          go (i + 1)
      | c ->
          Stdlib.Buffer.add_char buf c;
          go (i + 1)
    end
  in
  go 0;
  if !out = [] then fail line "empty card";
  List.rev !out

let value_exn line token =
  match parse_value token with Some v -> v | None -> fail line "bad numeric value %S" token

let parse_params line tokens =
  List.map
    (fun t ->
      match String.index_opt t '=' with
      | None -> fail line "expected PARAM=VALUE, got %S" t
      | Some i ->
          let key = String.uppercase_ascii (String.sub t 0 i) in
          let v = value_exn line (String.sub t (i + 1) (String.length t - i - 1)) in
          (key, v))
    tokens

let bjt_of_params line params =
  List.fold_left
    (fun m (k, v) ->
      match k with
      | "IS" -> { m with Models.q_is = v }
      | "BF" -> { m with Models.q_bf = v }
      | "BR" -> { m with Models.q_br = v }
      | "CJE" -> { m with Models.q_cje = v }
      | "CJC" -> { m with Models.q_cjc = v }
      | _ -> fail line "unknown BJT parameter %S" k)
    Models.default_bjt params

let diode_of_params line params =
  List.fold_left
    (fun m (k, v) ->
      match k with
      | "IS" -> { m with Models.d_is = v }
      | "N" -> { m with Models.d_n = v }
      | "CJ" -> { m with Models.d_cj = v }
      | _ -> fail line "unknown diode parameter %S" k)
    Models.default_diode params

(* waveform grammar: DC v | PULSE ( 7 values ) | SIN ( 5 ) | PWL ( 2k ) *)
let parse_waveform line tokens =
  let fn_args name rest =
    match rest with
    | "(" :: more ->
        let rec collect acc = function
          | ")" :: tail -> (List.rev acc, tail)
          | t :: tail -> collect (value_exn line t :: acc) tail
          | [] -> fail line "unterminated %s(...)" name
        in
        collect [] more
    | _ -> fail line "expected '(' after %s" name
  in
  match tokens with
  | [ "DC"; v ] | [ "dc"; v ] | [ v ] -> Waveform.Dc (value_exn line v)
  | kind :: rest -> begin
      match String.uppercase_ascii kind with
      | "PULSE" -> begin
          match fn_args "PULSE" rest with
          | [ v1; v2; delay; rise; fall; width; period ], [] ->
              Waveform.Pulse { v1; v2; delay; rise; fall; width; period }
          | _ -> fail line "PULSE needs 7 values"
        end
      | "SIN" | "SINE" -> begin
          match fn_args "SIN" rest with
          | [ offset; ampl; freq; delay; phase ], [] ->
              Waveform.Sine { offset; ampl; freq; delay; phase }
          | _ -> fail line "SIN needs 5 values"
        end
      | "PWL" -> begin
          match fn_args "PWL" rest with
          | values, [] ->
              let rec pairs = function
                | [] -> []
                | t :: v :: more -> (t, v) :: pairs more
                | [ _ ] -> fail line "PWL needs an even number of values"
              in
              Waveform.Pwl (Array.of_list (pairs values))
          | _ -> fail line "bad PWL"
        end
      | _ -> fail line "unknown source waveform %S" kind
    end
  | [] -> fail line "missing source waveform"

(* [V ( node ) =value] entries of a .nodeset card; the value may also
   stand apart from its [=] *)
let rec nodeset_entries line = function
  | [] -> []
  | v :: "(" :: name :: ")" :: rest when String.uppercase_ascii v = "V" ->
      let value, rest =
        match rest with
        | "=" :: tok :: rest -> (tok, rest)
        | tok :: rest when String.length tok > 1 && tok.[0] = '=' ->
            (String.sub tok 1 (String.length tok - 1), rest)
        | _ -> fail line "expected =VALUE after V(%s) in .nodeset" name
      in
      (name, value_exn line value) :: nodeset_entries line rest
  | tok :: _ -> fail line "expected V(<node>)=<value> in .nodeset, got %S" tok

let of_string text =
  let net = Netlist.create () in
  let node name = Netlist.node net name in
  (* .nodeset cards name nodes the device cards create, so they apply
     after every device card *)
  let nodesets = ref [] in
  let apply_nodeset (line, entries) =
    List.iter
      (fun (name, v) ->
        match Netlist.find_node net name with
        | Some nd -> Netlist.set_nodeset net nd v
        | None -> fail line "unknown node %S in .nodeset" name)
      entries
  in
  let parse_card (line, s) =
    let tokens = tokenize line s in
    match tokens with
    | [ ".end" ] | [ ".END" ] -> ()
    | kind :: entries when String.uppercase_ascii kind = ".NODESET" ->
        if entries = [] then fail line "empty .nodeset card";
        nodesets := (line, nodeset_entries line entries) :: !nodesets
    | kind :: name :: rest -> begin
        match (String.uppercase_ascii kind, rest) with
        | "R", [ n1; n2; v ] ->
            let r = value_exn line v in
            if r <= 0.0 then fail line "non-positive resistance %S" v;
            Netlist.resistor net ~name (node n1) (node n2) r
        | "C", [ n1; n2; v ] -> Netlist.capacitor net ~name (node n1) (node n2) (value_exn line v)
        | "D", a :: k :: params ->
            Netlist.diode net ~name
              ~model:(diode_of_params line (parse_params line params))
              ~anode:(node a) ~cathode:(node k) ()
        | "Q", c :: b :: rest when List.length rest >= 1 ->
            (* nodes until the first PARAM=VALUE token are emitters *)
            let is_param t = String.contains t '=' in
            let emitters = List.filter (fun t -> not (is_param t)) rest in
            let params = List.filter is_param rest in
            if emitters = [] then fail line "BJT %s needs at least one emitter" name;
            Netlist.bjt_multi net ~name
              ~model:(bjt_of_params line (parse_params line params))
              ~c:(node c) ~b:(node b)
              ~emitters:(Array.of_list (List.map node emitters))
              ()
        | "V", p :: n :: wf ->
            Netlist.vsource net ~name ~pos:(node p) ~neg:(node n) (parse_waveform line wf)
        | "I", p :: n :: wf ->
            Netlist.isource net ~name ~pos:(node p) ~neg:(node n) (parse_waveform line wf)
        | "E", [ p; n; cp; cn; g ] ->
            Netlist.vcvs net ~name ~pos:(node p) ~neg:(node n) ~cpos:(node cp) ~cneg:(node cn)
              (value_exn line g)
        | "G", [ p; n; cp; cn; g ] ->
            Netlist.vccs net ~name ~pos:(node p) ~neg:(node n) ~cpos:(node cp) ~cneg:(node cn)
              (value_exn line g)
        | ("R" | "C" | "D" | "Q" | "V" | "I" | "E" | "G"), _ ->
            fail line "wrong number of fields for a %s card" kind
        | _ -> fail line "unknown card type %S" kind
      end
    | _ -> fail line "malformed card"
  in
  (* [Netlist]'s own rejections (a duplicate name, say) are reported at
     the line the offending card starts on *)
  let at_line f ((line, _) as card) = try f card with Invalid_argument msg -> fail line "%s" msg in
  List.iter (at_line parse_card) (logical_lines text);
  List.iter (at_line apply_nodeset) (List.rev !nodesets);
  net

let write_file ~path net =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string net))

let read_file ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
