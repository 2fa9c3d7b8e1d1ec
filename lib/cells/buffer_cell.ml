module N = Cml_spice.Netlist

let add (b : Builder.t) ~name ~input =
  let op = N.node b.Builder.net (name ^ ".op") in
  let on = N.node b.Builder.net (name ^ ".on") in
  let ce = N.node b.Builder.net (name ^ ".ce") in
  let model = b.Builder.proc.Process.bjt in
  (* Q1 conducts when the true input is high, pulling the complement
     output low; Q2 handles the other phase. *)
  N.bjt b.Builder.net ~name:(name ^ ".q1") ~model ~c:on ~b:input.Builder.p ~e:ce ();
  N.bjt b.Builder.net ~name:(name ^ ".q2") ~model ~c:op ~b:input.Builder.n ~e:ce ();
  Builder.tail_source b ~name:(name ^ ".q3") ce;
  Builder.load_resistor b ~name:(name ^ ".r1") on;
  Builder.load_resistor b ~name:(name ^ ".r2") op;
  Builder.wire_cap b ~name:(name ^ ".cn") on;
  Builder.wire_cap b ~name:(name ^ ".cp") op;
  let out = { Builder.p = op; n = on } in
  Builder.register_cell b ~name ~outputs:out;
  out

let inverter b ~name ~input = Builder.swap (add b ~name ~input)

