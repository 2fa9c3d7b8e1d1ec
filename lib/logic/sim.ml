type state = Value.t array

let initial (c : Circuit.t) v = Array.make (Array.length c.Circuit.dffs) v

let random_state (c : Circuit.t) ~seed =
  let st = Random.State.make [| seed |] in
  Array.init (Array.length c.Circuit.dffs) (fun _ ->
      Value.of_bool (Random.State.bool st))

let eval (c : Circuit.t) state ~inputs =
  let values = Array.make (Array.length c.Circuit.gates) Value.X in
  (* the sources first: the i-th declared input takes [inputs.(i)] (X
     past its end), each flip-flop its state slot *)
  List.iteri
    (fun i (_, gid) -> if i < Array.length inputs then values.(gid) <- inputs.(i))
    c.Circuit.inputs;
  Array.iteri (fun slot gid -> values.(gid) <- state.(slot)) c.Circuit.dffs;
  Array.iter
    (fun gid ->
      values.(gid) <-
        (match c.Circuit.gates.(gid) with
        | Circuit.Input _ | Circuit.Dff _ -> values.(gid)
        | Circuit.And (a, b) -> Value.v_and values.(a) values.(b)
        | Circuit.Or (a, b) -> Value.v_or values.(a) values.(b)
        | Circuit.Xor (a, b) -> Value.v_xor values.(a) values.(b)
        | Circuit.Not a -> Value.v_not values.(a)
        | Circuit.Buf a -> values.(a)
        | Circuit.Mux { sel; a; b } -> Value.v_mux ~sel:values.(sel) ~a:values.(a) ~b:values.(b)))
    c.Circuit.order;
  values

let step c state ~inputs =
  let values = eval c state ~inputs in
  let next =
    Array.map
      (fun gid ->
        match c.Circuit.gates.(gid) with
        | Circuit.Dff { d } -> values.(d)
        | Circuit.Input _ | Circuit.And _ | Circuit.Or _ | Circuit.Xor _ | Circuit.Not _
        | Circuit.Buf _ | Circuit.Mux _ -> assert false)
      c.Circuit.dffs
  in
  (next, values)

let run c state ~patterns =
  let rec go state acc = function
    | [] -> (state, List.rev acc)
    | p :: rest ->
        let state', values = step c state ~inputs:p in
        go state' (values :: acc) rest
  in
  go state [] patterns

let outputs_of (c : Circuit.t) values =
  List.map (fun (name, id) -> (name, values.(id))) c.Circuit.outputs
