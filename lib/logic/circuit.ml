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
  inputs : (string * int) list;
  outputs : (string * int) list;
  order : int array;
  dffs : int array;
}

type builder = {
  mutable rev_gates : gate list;
  mutable count : int;
  mutable rev_inputs : (string * int) list;
  mutable rev_outputs : (string * int) list;
}

let create () = { rev_gates = []; count = 0; rev_inputs = []; rev_outputs = [] }

let push b g =
  let id = b.count in
  b.rev_gates <- g :: b.rev_gates;
  b.count <- id + 1;
  id

let input b name =
  let id = push b (Input name) in
  b.rev_inputs <- (name, id) :: b.rev_inputs;
  id

let and2 b x y = push b (And (x, y))

let or2 b x y = push b (Or (x, y))

let xor2 b x y = push b (Xor (x, y))

let not1 b x = push b (Not x)

let buf b x = push b (Buf x)

let mux b ~sel ~a ~b:bb = push b (Mux { sel; a; b = bb })

let nand2 b x y = not1 b (and2 b x y)

let nor2 b x y = not1 b (or2 b x y)

let dff b = push b (Dff { d = -1 })

let connect_dff b ~ff ~d =
  let gates = Array.of_list (List.rev b.rev_gates) in
  (match gates.(ff) with
  | Dff { d = -1 } -> ()
  | Dff _ -> invalid_arg "connect_dff: already connected"
  | Input _ | And _ | Or _ | Xor _ | Not _ | Buf _ | Mux _ ->
      invalid_arg "connect_dff: not a flip-flop");
  gates.(ff) <- Dff { d };
  b.rev_gates <- List.rev (Array.to_list gates)

let output b name id = b.rev_outputs <- (name, id) :: b.rev_outputs

let fanins = function
  | Input _ -> []
  | And (a, b) | Or (a, b) | Xor (a, b) -> [ a; b ]
  | Not a | Buf a -> [ a ]
  | Mux { sel; a; b } -> [ sel; a; b ]
  | Dff _ -> []
(* DFF outputs act as sources in the combinational graph; their data
   input is read only at the clock edge. *)

let gate_kind = function
  | Input name -> Printf.sprintf "input %s" name
  | And _ -> "and"
  | Or _ -> "or"
  | Xor _ -> "xor"
  | Not _ -> "not"
  | Buf _ -> "buf"
  | Mux _ -> "mux"
  | Dff _ -> "dff"

let finalize b =
  let gates = Array.of_list (List.rev b.rev_gates) in
  let n = Array.length gates in
  let describe i = Printf.sprintf "net %d (%s)" i (gate_kind gates.(i)) in
  let unconnected =
    List.filter_map
      (fun (i, g) -> match g with Dff { d } when d < 0 -> Some i | _ -> None)
      (Array.to_list (Array.mapi (fun i g -> (i, g)) gates))
  in
  if unconnected <> [] then
    invalid_arg
      (Printf.sprintf "finalize: unconnected flip-flop(s) at %s (wire them with connect_dff)"
         (String.concat ", " (List.map (fun i -> Printf.sprintf "net %d" i) unconnected)));
  Array.iteri
    (fun i g ->
      List.iter
        (fun f ->
          if f < 0 || f >= n then
            invalid_arg
              (Printf.sprintf "finalize: %s has dangling fanin %d (valid nets are 0..%d)"
                 (describe i) f (n - 1)))
        (fanins g))
    gates;
  (* topological sort of the combinational part (DFS); [path] is the
     active DFS stack (most recent first) so a back edge can report
     the whole offending cycle *)
  let mark = Array.make n 0 in
  let order = ref [] in
  let rec visit path i =
    match mark.(i) with
    | 2 -> ()
    | 1 ->
        (* back edge: the cycle is the DFS stack from its top down to
           the first occurrence of [i]; prefixing [i] lists it in
           signal-flow order (each net drives the next) *)
        let rec upto = function
          | [] -> []
          | j :: rest -> if j = i then [ j ] else j :: upto rest
        in
        let cycle = i :: upto path in
        invalid_arg
          (Printf.sprintf "finalize: combinational cycle: %s (break it with a flip-flop)"
             (String.concat " -> " (List.map describe cycle)))
    | _ ->
        mark.(i) <- 1;
        List.iter (visit (i :: path)) (fanins gates.(i));
        mark.(i) <- 2;
        order := i :: !order
  in
  for i = 0 to n - 1 do
    visit [] i
  done;
  let dffs = ref [] in
  Array.iteri (fun i g -> match g with Dff _ -> dffs := i :: !dffs | _ -> ()) gates;
  {
    gates;
    inputs = List.rev b.rev_inputs;
    outputs = List.rev b.rev_outputs;
    order = Array.of_list (List.rev !order);
    dffs = Array.of_list (List.rev !dffs);
  }

let num_nets t = Array.length t.gates

(* Stable net names shared by the DFT planner and the CML compiler: a
   declared primary-output name when the net has one, the input name
   for a primary input, ["n<id>"] otherwise.  Positional names that an
   output declaration already claims for a *different* net (common in
   round-tripped .bench files, whose output names are themselves
   "n<id>" under the writer's numbering) are disambiguated with
   underscores so every net name is unique. *)
let net_names t =
  let n = Array.length t.gates in
  let names = Array.make n "" in
  let used = Hashtbl.create (2 * n) in
  let claim i name =
    if names.(i) = "" && not (Hashtbl.mem used name) then begin
      names.(i) <- name;
      Hashtbl.replace used name ()
    end
  in
  List.iter (fun (name, id) -> claim id name) t.outputs;
  Array.iteri (fun i g -> match g with Input name -> claim i name | _ -> ()) t.gates;
  Array.iteri
    (fun i _ ->
      if names.(i) = "" then begin
        let rec fresh s = if Hashtbl.mem used s then fresh (s ^ "_") else s in
        let name = fresh (Printf.sprintf "n%d" i) in
        names.(i) <- name;
        Hashtbl.replace used name ()
      end)
    names;
  names
