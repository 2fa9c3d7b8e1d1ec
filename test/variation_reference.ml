(* Test-only reference: [Variation.perturb] as it was written on
   [Netlist.set_device] (one name lookup, removal and re-insertion per
   device), kept verbatim beside the [Netlist.map_devices] version so
   that the two can be checked draw for draw and value for value. *)

module N = Cml_spice.Netlist
module M = Cml_spice.Models

let default_spec : Cml_defects.Variation.spec = Cml_defects.Variation.default_spec

(* lognormal multiplier exp(sigma * gauss): always positive, mean ~1 *)
let factor st sigma =
  if sigma <= 0.0 then 1.0
  else begin
    let rec gauss () =
      let u1 = Random.State.float st 1.0 in
      if u1 <= 1e-12 then gauss ()
      else begin
        let u2 = Random.State.float st 1.0 in
        sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)
      end
    in
    exp (sigma *. gauss ())
  end

let perturb ?(spec = default_spec) ~seed net =
  let st = Random.State.make [| seed; 0x5EED |] in
  let out = N.copy net in
  N.iter_devices net (fun d ->
      match d with
      | N.Resistor ({ name; r; _ } as dev) ->
          N.set_device out name (N.Resistor { dev with r = r *. factor st spec.resistor_sigma })
      | N.Capacitor ({ name; c; _ } as dev) ->
          N.set_device out name (N.Capacitor { dev with c = c *. factor st spec.capacitor_sigma })
      | N.Bjt ({ name; model; _ } as dev) ->
          let model =
            {
              model with
              M.q_is = model.M.q_is *. factor st spec.is_sigma;
              M.q_bf = model.M.q_bf *. factor st spec.beta_sigma;
            }
          in
          N.set_device out name (N.Bjt { dev with model })
      | N.Diode ({ name; model; _ } as dev) ->
          let model = { model with M.d_is = model.M.d_is *. factor st spec.is_sigma } in
          N.set_device out name (N.Diode { dev with model })
      | N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Vccs _ -> ());
  out
