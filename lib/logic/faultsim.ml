type fault = { net : int; stuck : bool }

let all_faults c =
  List.concat_map
    (fun net -> [ { net; stuck = false }; { net; stuck = true } ])
    (List.init (Circuit.num_nets c) Fun.id)

(* Faulty evaluation: like Sim.eval but the faulty net is forced.
   Re-implemented here rather than hooked into Sim to keep the
   fault-free path branch-free. *)
let eval_faulty (c : Circuit.t) state ~inputs fault =
  let n = Array.length c.Circuit.gates in
  let values = Array.make n Value.X in
  let slots = Hashtbl.create 16 in
  Array.iteri (fun slot gid -> Hashtbl.replace slots gid slot) c.Circuit.dffs;
  let input_values = Hashtbl.create 8 in
  List.iteri
    (fun i (name, _) ->
      if i < Array.length inputs then Hashtbl.replace input_values name inputs.(i))
    c.Circuit.inputs;
  Array.iter
    (fun gid ->
      let v =
        match c.Circuit.gates.(gid) with
        | Circuit.Input name -> (
            match Hashtbl.find_opt input_values name with Some v -> v | None -> Value.X)
        | Circuit.And (a, b) -> Value.v_and values.(a) values.(b)
        | Circuit.Or (a, b) -> Value.v_or values.(a) values.(b)
        | Circuit.Xor (a, b) -> Value.v_xor values.(a) values.(b)
        | Circuit.Not a -> Value.v_not values.(a)
        | Circuit.Buf a -> values.(a)
        | Circuit.Mux { sel; a; b } -> Value.v_mux ~sel:values.(sel) ~a:values.(a) ~b:values.(b)
        | Circuit.Dff _ -> state.(Hashtbl.find slots gid)
      in
      values.(gid) <- (if gid = fault.net then Value.of_bool fault.stuck else v))
    c.Circuit.order;
  values

let step_faulty c state ~inputs fault =
  let values = eval_faulty c state ~inputs fault in
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

let detects c ~initial ~patterns fault =
  let rec go good faulty = function
    | [] -> false
    | p :: rest ->
        let good', gv = Sim.step c good ~inputs:p in
        let faulty', fv = step_faulty c faulty ~inputs:p fault in
        let seen =
          List.exists
            (fun (_, oid) ->
              match (Value.to_bool gv.(oid), Value.to_bool fv.(oid)) with
              | Some a, Some b -> a <> b
              | None, _ | _, None -> false)
            c.Circuit.outputs
        in
        seen || go good' faulty' rest
  in
  go initial initial patterns

let coverage ?jobs c ~initial ~patterns =
  let faults = Array.of_list (all_faults c) in
  (* good/faulty machine pairs are rebuilt per fault; the circuit and
     pattern list are only read, so faults fan out over domains — in
     contiguous slices, since a single fault is far too small a task
     to pay the pool handoff for *)
  let hits =
    Cml_runtime.Pool.parallel_map_batches ?jobs
      (Array.map (detects c ~initial ~patterns))
      faults
  in
  let detected = Array.fold_left (fun n hit -> if hit then n + 1 else n) 0 hits in
  let total = Array.length faults in
  (float_of_int detected /. float_of_int (max 1 total), detected, total)
