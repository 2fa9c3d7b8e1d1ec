let stuck_at_detects (f : Cml_defects.Campaign.flags) = f.Cml_defects.Campaign.stuck

let menon_xor_detects (f : Cml_defects.Campaign.flags) =
  f.Cml_defects.Campaign.stuck || f.Cml_defects.Campaign.reduced_swing

let delay_test_detects (f : Cml_defects.Campaign.flags) = f.Cml_defects.Campaign.delay_detectable

let amplitude_detector_detects (f : Cml_defects.Campaign.flags) =
  f.Cml_defects.Campaign.excessive_excursion || f.Cml_defects.Campaign.stuck

let delay_test_escape ~gate_delay ~stages ~tolerance ~extra_delay =
  extra_delay <= tolerance *. float_of_int stages *. gate_delay
