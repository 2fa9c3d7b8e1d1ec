let boltzmann_vt = 0.025852

type diode = { d_is : float; d_n : float; d_cj : float }

let default_diode = { d_is = 1e-16; d_n = 1.0; d_cj = 10e-15 }

type bjt = { q_is : float; q_bf : float; q_br : float; q_cje : float; q_cjc : float }

(* Is chosen so that VBE is about 0.9 V at 0.5 mA, matching the
   "VBE = 900 mV technology" the paper quotes. *)
let default_bjt = { q_is = 4e-19; q_bf = 100.0; q_br = 1.0; q_cje = 30e-15; q_cjc = 15e-15 }
