(** Prior-art detection models the paper compares against.

    These are deliberately behavioural: each baseline looks at the
    measured fault behaviour from a {!Cml_defects.Campaign} run and
    decides whether that technique would have caught the defect. *)

val stuck_at_detects : Cml_defects.Campaign.flags -> bool
(** Classic stuck-at testing at the primary outputs: catches a defect
    only when the chain output stops toggling. *)

val menon_xor_detects : Cml_defects.Campaign.flags -> bool
(** Menon's per-gate XOR checker (reference [4]) verifies that the
    two outputs stay complementary; it catches stuck rails and
    collapsed swings but not excursions that preserve
    complementarity. *)

val delay_test_detects : Cml_defects.Campaign.flags -> bool
(** At-speed path-delay testing of the whole chain; healing makes
    most excursion faults invisible to it (Tables 1-2). *)

val amplitude_detector_detects : Cml_defects.Campaign.flags -> bool
(** The paper's built-in detectors: excessive excursions, plus
    stuck-at rails (a stuck output also parks one detector junction
    at a large bias in test mode). *)

val delay_test_escape :
  gate_delay:float -> stages:int -> tolerance:float -> extra_delay:float -> bool
(** The introduction's escape argument: a tester that checks the
    total delay of a [stages]-gate chain against a band of
    [tolerance] (e.g. 0.1 for the 10% per-gate variation) cannot see
    an [extra_delay] smaller than [tolerance * stages * gate_delay] —
    returns [true] when the fault escapes. *)
