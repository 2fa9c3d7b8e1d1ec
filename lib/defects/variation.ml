module N = Cml_spice.Netlist
module M = Cml_spice.Models

type spec = {
  resistor_sigma : float;
  capacitor_sigma : float;
  is_sigma : float;
  beta_sigma : float;
}

let default_spec =
  { resistor_sigma = 0.02; capacitor_sigma = 0.05; is_sigma = 0.05; beta_sigma = 0.10 }

let tight_spec =
  {
    resistor_sigma = 0.005;
    capacitor_sigma = 0.0125;
    is_sigma = 0.0375;
    beta_sigma = 0.025;
  }

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
  N.map_devices net (function
    | N.Resistor ({ r; _ } as dev) -> N.Resistor { dev with r = r *. factor st spec.resistor_sigma }
    | N.Capacitor ({ c; _ } as dev) ->
        N.Capacitor { dev with c = c *. factor st spec.capacitor_sigma }
    | N.Bjt ({ model; _ } as dev) ->
        let model =
          {
            model with
            M.q_is = model.M.q_is *. factor st spec.is_sigma;
            M.q_bf = model.M.q_bf *. factor st spec.beta_sigma;
          }
        in
        N.Bjt { dev with model }
    | N.Diode ({ model; _ } as dev) ->
        let model = { model with M.d_is = model.M.d_is *. factor st spec.is_sigma } in
        N.Diode { dev with model }
    | (N.Vsource _ | N.Isource _ | N.Vcvs _ | N.Vccs _) as d -> d)
