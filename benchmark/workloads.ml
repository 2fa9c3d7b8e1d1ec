(* The benchmark's four workloads and their seeded inputs.  Every rep's
   inputs derive from (seed, rep) alone, through
   [Random.State.make [| seed; rep |]], so a run at one seed replays
   exactly and a rep can be regenerated without the ones before it.

   Why these four: they stress different layers of the simulator, so an
   optimisation of one layer has a workload that exercises it and one
   that bypasses it (benchmark/README.md maps layers to workloads).
   - chain-campaign: the paper's section-5 experiment, a 32-unknown
     dense system where device evaluation, step control and the batch
     scheduler dominate and LU is cheap;
   - c432-campaign: the same campaign code on a 949-unknown compiled
     design, where sparse refactor/solve and assembly dominate;
   - c432-op: repeated DC operating points of that design, where
     symbolic analysis, ordering and homotopy Newton dominate;
   - mc-sharing: the paper's N = 45 sharing limit under process spread,
     many small warm-started DC solves on freshly compiled netlists. *)

module D = Cml_defects

type name = Chain_campaign | C432_campaign | C432_op | Mc_sharing

let all = [ Chain_campaign; C432_campaign; C432_op; Mc_sharing ]

let to_string = function
  | Chain_campaign -> "chain-campaign"
  | C432_campaign -> "c432-campaign"
  | C432_op -> "c432-op"
  | Mc_sharing -> "mc-sharing"

let of_string s = List.find_opt (fun w -> to_string w = s) all

(* [smoke] shrinks every workload to a few seconds in total, for the
   test suite; the timed benchmark always runs the full size. *)
type size = { smoke : bool }

let full = { smoke = false }
let smoke = { smoke = true }

(* ------------------------------------------------------------------ *)
(* Fixed workload parameters *)

let chain_freq = 100e6
let chain_stages = 8
let chain_tstop = 10e-9
let c432_freq = 200e6
let c432_tstop size = if size.smoke then 0.3e-9 else 5e-9

(* A c432 variant costs 0.5-3 s of transient, 20 to 100 times a chain
   variant; eight of them, after the 2-s reference run, keep a rep near
   9 s on two domains. *)
let c432_defects size = if size.smoke then 1 else 8

let mc_gates size = if size.smoke then 5 else 45
let mc_samples size = if size.smoke then 4 else 100

(* Defects of rep 0 re-run unbatched at jobs = 1 as the parity check. *)
let parity_defects size = function
  | Chain_campaign -> if size.smoke then 2 else 4
  | C432_campaign -> if size.smoke then 1 else 4
  | C432_op | Mc_sharing -> 0

(* Domains of the campaigns and the Monte-Carlo, timed and traced: the
   host's two cores.  c432-op is sequential. *)
let jobs = 2

(* ------------------------------------------------------------------ *)
(* Designs *)

let chain_netlist =
  lazy
    (Cml_cells.Chain.build ~stages:chain_stages ~freq:chain_freq ()).Cml_cells.Chain.builder
      .Cml_cells.Builder.net

(* The c432 surrogate compiled to CML: the circuit generator stands in
   for reading the committed [.bench] fixture it produced.  [state]
   holds primary inputs 2.. at fixed levels (the first one toggles);
   without it the compiler's default drive applies. *)
let compile_c432 ?state () =
  let circuit = Cml_logic.Bench_circuits.c432_surrogate () in
  let stimuli =
    Option.map
      (fun levels ->
        List.mapi
          (fun i (name, _) ->
            (name, if i = 0 then Cml_cells.Compile.Toggle else Cml_cells.Compile.Const levels.(i - 1)))
          circuit.Cml_logic.Circuit.inputs)
      state
  in
  Cml_cells.Compile.compile ~freq:c432_freq ?stimuli circuit

let c432 = lazy (compile_c432 ())

(* The stimulus, attacked-cell and measured-output pairs of a compiled
   design campaign, chosen as [cmldft campaign FILE.bench] chooses
   them. *)
let design_ports design =
  let module C = Cml_cells.Compile in
  ( design.C.input,
    Option.get (C.find_cell design (C.default_dut design)),
    List.assoc (C.default_output design) design.C.outputs )

(* ------------------------------------------------------------------ *)
(* Per-rep inputs *)

(* [pipes] are the pipe resistances handed to [Sites.enumerate]; a
   design campaign always attacks [Compile.default_dut]. *)
type rep =
  | Chain of { stage : int; pipes : float list; defects : D.Defect.t list }
  | Design of { pipes : float list; defects : D.Defect.t list }
  | Op of { state : bool array; perturb : int }
      (** the c432 logic state and the [Variation.perturb] seed *)
  | Montecarlo of int  (** [Montecarlo.run] seed *)

let defects = function
  | Chain { defects; _ } | Design { defects; _ } -> defects
  | Op _ | Montecarlo _ -> []

let log_uniform st ~lo ~hi = lo *. exp (Random.State.float st (log (hi /. lo)))
let pipes st n = List.init n (fun _ -> log_uniform st ~lo:500.0 ~hi:8e3)

(* One defect drawn from each of [k] contiguous strata of the site
   list: the list runs device by device, so every rep keeps a similar
   mix of devices and defect kinds. *)
let stratified st k sites =
  let a = Array.of_list sites in
  let n = Array.length a in
  List.init k (fun i ->
      let lo = i * n / k and hi = (i + 1) * n / k in
      a.(lo + Random.State.int st (hi - lo)))

let inputs size w ~seed ~rep =
  let st = Random.State.make [| seed; rep |] in
  match w with
  | Chain_campaign ->
      let stage = 2 + Random.State.int st 5 in
      let pipes = pipes st 3 in
      let sites =
        D.Sites.enumerate (Lazy.force chain_netlist)
          ~prefix:(Cml_cells.Chain.stage_name stage) ~pipe_values:pipes
      in
      let defects =
        if size.smoke then
          (* the pipes on the current source, the paper's marquee
             defect: they still show an excursion that heals *)
          List.filter
            (function D.Defect.Pipe { device; _ } -> Filename.check_suffix device ".q3" | _ -> false)
            sites
        else List.filteri (fun i _ -> i < 32) sites
      in
      Chain { stage; pipes; defects }
  | C432_campaign ->
      let design = Lazy.force c432 in
      let pipes = pipes st 2 in
      let sites =
        D.Sites.enumerate (Cml_cells.Compile.netlist design)
          ~prefix:(Cml_cells.Compile.default_dut design) ~pipe_values:pipes
      in
      (* A c432 variant costs 0.5 s of transient when the defect sticks
         the output and up to 3 s when it keeps toggling, and the cost
         runs device by device along the site list: a stratified draw
         keeps each rep's mix of cheap and dear sites close. *)
      Design { pipes; defects = stratified st (c432_defects size) sites }
  | C432_op ->
      let inputs = List.length (Cml_logic.Bench_circuits.c432_surrogate ()).Cml_logic.Circuit.inputs in
      Op
        {
          state = Array.init (inputs - 1) (fun _ -> Random.State.bool st);
          perturb = (seed * 100000) + rep;
        }
  | Mc_sharing -> Montecarlo ((seed * 100000) + (rep * 1000))

let describe_rep ~rep inputs =
  let campaign dut pipes defects =
    Printf.sprintf "rep %d: dut %s, pipes [%s]\n%s" rep dut
      (String.concat "; " (List.map (Printf.sprintf "%.17g") pipes))
      (String.concat ""
         (List.map (fun d -> Printf.sprintf "  %s\n" (D.Defect.describe d)) defects))
  in
  match inputs with
  | Chain { stage; pipes; defects } -> campaign (Cml_cells.Chain.stage_name stage) pipes defects
  | Design { pipes; defects } ->
      campaign (Cml_cells.Compile.default_dut (Lazy.force c432)) pipes defects
  | Op { state; perturb } ->
      Printf.sprintf "rep %d: inputs 2.. held at %s, perturb seed %d\n" rep
        (String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") state)))
        perturb
  | Montecarlo s -> Printf.sprintf "rep %d: montecarlo seed %d\n" rep s

(* The [--print-inputs] dump of reps [0 .. reps-1]. *)
let dump size w ~seed ~reps =
  String.concat ""
    (Printf.sprintf "workload %s seed %d\n" (to_string w) seed
    :: List.init reps (fun rep -> describe_rep ~rep (inputs size w ~seed ~rep)))
