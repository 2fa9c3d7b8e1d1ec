(* Test helper: empty [Engine.compile]'s layout table by filling it
   with [k] (default [Engine.layout_bound]) topologies no compile has
   seen: 24-node resistor ladders, each with a shunt resistor at node
   [i] when bit [i - 1] of its fresh serial is set.  [Engine.layout_bound]
   of them push every earlier layout, and its symbolic analysis, out of
   the table. *)

module N = Cml_spice.Netlist

let ladders = ref 0

let evict ?(k = Cml_spice.Engine.layout_bound) () =
  for _ = 1 to k do
    incr ladders;
    let net = N.create () in
    let nodes = Array.init 24 (fun i -> N.node net (Printf.sprintf "n%d" i)) in
    N.vsource net ~name:"v" ~pos:nodes.(0) ~neg:N.gnd (Cml_spice.Waveform.Dc 1.0);
    for i = 1 to 23 do
      N.resistor net ~name:(Printf.sprintf "r%d" i) nodes.(i - 1) nodes.(i) 1e3;
      if (!ladders lsr (i - 1)) land 1 = 1 then
        N.resistor net ~name:(Printf.sprintf "g%d" i) nodes.(i) N.gnd 1e4
    done;
    ignore (Cml_spice.Engine.compile net)
  done
