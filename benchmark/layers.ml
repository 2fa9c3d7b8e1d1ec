(* The layer pass of the traced run.  The campaign, operating-point and
   Monte-Carlo entry points are black boxes to the timed run; here the
   benchmark makes their layer calls itself -- build, lint, inject,
   perturb, compile, DC, transient, probe analysis -- each inside a span
   named after the layer it enters, and counts the work every compiled
   sim did.  The simulator itself carries no instrumentation for this.

   The campaign pass mirrors [Campaign.run]/[run_design]: reference run
   first, then the defects in slices of at most 16 lanes, grouped by
   unknown count, through [Transient.run_batch] warm-started from the
   reference trajectory.  Its probe analysis re-implements the
   library's private one from the public [Cml_wave] calls. *)

module W = Workloads
module E = Cml_spice.Engine
module T = Cml_spice.Transient
module D = Cml_defects
module Wave = Cml_wave.Wave
module Measure = Cml_wave.Measure
module Clock = Cml_telemetry.Clock

(* Work done by every sim the pass compiled.  [published] marks the
   sims whose counters the library publishes to the metrics registry,
   so the pass's Newton total can be checked against the timed rep's. *)
type acc = {
  mutable sims : (E.sim * bool) list;
  mutable tran : T.stats list;
  mutable dc_newton : int;
}

let track acc ?(published = true) sim =
  acc.sims <- (sim, published) :: acc.sims;
  sim

let compile acc ?published net = track acc ?published (Span.record "engine.compile" (fun () -> E.compile net))

let dc acc sim f =
  let before = (E.solver_stats sim).E.newton_iters in
  let x = Span.record "engine.dc" f in
  acc.dc_newton <- acc.dc_newton + (E.solver_stats sim).E.newton_iters - before;
  x

(* ------------------------------------------------------------------ *)
(* Campaign probe analysis *)

let probes ~input ~pairs sim =
  let pair (name, d) =
    [
      (name ^ ".p", E.node_unknown d.Cml_cells.Builder.p);
      (name ^ ".n", E.node_unknown d.Cml_cells.Builder.n);
    ]
  in
  let base = List.concat_map pair (("in", input) :: pairs) in
  match E.branch_unknown sim "vdd" with exception Not_found -> base | br -> ("i(vdd)", br) :: base

(* One variant's measurement from its streamed probes: [dut] and
   [final] name probe pairs, [stages] the chain's stage pairs for the
   healing profile (none on a compiled design).  Also returns the final
   output's plateau levels, the nominal levels of a reference run. *)
let measure obs ~freq ~tstop ~dut ~final ~stages ~nominal =
  let wave name =
    let times, values = T.probe_samples obs name in
    Wave.create times values
  in
  let t_from = tstop /. 2.0 in
  let supply_current =
    match wave "i(vdd)" with
    | exception Not_found -> 0.0
    | w ->
        let w = Wave.map Float.abs w in
        Wave.mean (Wave.sub_range w ~t_from ~t_to:(Wave.t_end w))
  in
  let lo_p, hi_p = Measure.extremes (wave (dut ^ ".p")) ~t_from in
  let lo_n, hi_n = Measure.extremes (wave (dut ^ ".n")) ~t_from in
  let wp_fin = wave (final ^ ".p") and wn_fin = wave (final ^ ".n") in
  let lo_fp, hi_fp = Measure.extremes wp_fin ~t_from in
  let lo_fn, hi_fn = Measure.extremes wn_fin ~t_from in
  let final_delay =
    match
      List.find_opt (fun t -> t >= t_from) (Measure.differential_crossings (wave "in.p") (wave "in.n"))
    with
    | None -> None
    | Some t0 -> (
        match List.find_opt (fun t -> t > t0) (Measure.differential_crossings wp_fin wn_fin) with
        | Some t1 when t1 -. t0 < 0.75 /. freq -> Some (t1 -. t0)
        | Some _ | None -> None)
  in
  let degraded_at, healing_depth =
    match nominal with
    | Some (nominal_low, nominal_high) when stages <> [] ->
        let p =
          Cml_wave.Health.profile ~nominal_low ~nominal_high ~t_from
            (List.map (fun s -> (s, wave (s ^ ".p"))) stages)
        in
        (p.Cml_wave.Health.first_degraded, p.Cml_wave.Health.healing_depth)
    | Some _ | None -> (None, None)
  in
  ( {
      D.Campaign.dut_vlow = Float.min lo_p lo_n;
      dut_vhigh = Float.max hi_p hi_n;
      dut_swing = hi_p -. lo_p;
      final_vlow = Float.min lo_fp lo_fn;
      final_vhigh = Float.max hi_fp hi_fn;
      final_swing = hi_fp -. lo_fp;
      final_delay;
      supply_current;
      degraded_at;
      healing_depth;
    },
    Measure.levels wp_fin ~t_from )

(* A campaign's circuit: golden netlist, probe set and measurement. *)
type circuit = {
  golden : Cml_spice.Netlist.t;
  probe_set : E.sim -> (string * int) list;
  analyze : nominal:(float * float) option -> T.observers -> D.Campaign.measurement * (float * float);
  tstop : float;
}

let chain_circuit ~stage =
  let chain =
    Span.record "cells.build" (fun () ->
        Cml_cells.Chain.build ~stages:W.chain_stages ~freq:W.chain_freq ())
  in
  let stages = List.init W.chain_stages (fun i -> Cml_cells.Chain.stage_name (i + 1)) in
  let tstop = W.chain_tstop in
  {
    golden = chain.Cml_cells.Chain.builder.Cml_cells.Builder.net;
    probe_set =
      probes ~input:chain.Cml_cells.Chain.input
        ~pairs:(List.mapi (fun i s -> (s, Cml_cells.Chain.output chain (i + 1))) stages);
    analyze =
      (fun ~nominal obs ->
        measure obs ~freq:W.chain_freq ~tstop ~dut:(Cml_cells.Chain.stage_name stage)
          ~final:(Cml_cells.Chain.stage_name W.chain_stages) ~stages ~nominal);
    tstop;
  }

let c432_circuit size =
  let design = Span.record "cells.build" (fun () -> W.compile_c432 ()) in
  let input, dut, final = W.design_ports design in
  let tstop = W.c432_tstop size in
  {
    golden = Cml_cells.Compile.netlist design;
    probe_set = probes ~input ~pairs:[ ("dut", dut); ("fin", final) ];
    analyze =
      (fun ~nominal:_ obs ->
        measure obs ~freq:W.c432_freq ~tstop ~dut:"dut" ~final:"fin" ~stages:[] ~nominal:None);
    tstop;
  }

(* Returns each defect's class labels and the reference operating
   point. *)
let campaign_pass acc c ~defects =
  Span.record "analysis.preflight" (fun () ->
      Cml_analysis.Lint.preflight_netlist ~what:"benchmark golden netlist" c.golden);
  let breakpoints =
    Span.record "transient.run" (fun () -> T.collect_breakpoints c.golden ~tstop:c.tstop)
  in
  let sim = compile acc c.golden in
  let x0 = dc acc sim (fun () -> E.dc_operating_point sim) in
  let obs = T.observers (c.probe_set sim) in
  let guide =
    Span.record "transient.run" (fun () ->
        T.run ~x0 ~breakpoints ~observers:obs sim c.golden
          (T.config ~tstop:c.tstop ~max_step:10e-12 ()))
  in
  acc.tran <- guide.T.stats :: acc.tran;
  let reference, nominal = Span.record "wave.analysis" (fun () -> c.analyze ~nominal:None obs) in
  let cfg = T.config ~tstop:c.tstop ~max_step:10e-12 ~record_every:0 () in
  let defects = Array.of_list defects in
  let labels = Array.make (Array.length defects) [ "failed" ] in
  let run_group sims group =
    let obs = Array.map (fun k -> T.observers (c.probe_set (Option.get sims.(k)))) group in
    let lanes = Array.mapi (fun j k -> (Option.get sims.(k), Some obs.(j))) group in
    let results = Span.record "transient.run" (fun () -> T.run_batch ~guide ~breakpoints lanes c.golden cfg) in
    Span.record "wave.analysis" (fun () ->
        Array.iteri
          (fun j k ->
            match results.(j) with
            | T.Lane_done r ->
                acc.tran <- r.T.stats :: acc.tran;
                let m, _ = c.analyze ~nominal:(Some nominal) obs.(j) in
                labels.(k) <-
                  D.Campaign.flag_labels
                    (D.Campaign.classify ~proc:Cml_cells.Process.default ~reference m)
            | T.Lane_failed _ | T.Lane_incompatible -> ())
          group)
  in
  let rec slices start =
    if start < Array.length defects then begin
      let idx = List.init (min 16 (Array.length defects - start)) (fun k -> start + k) in
      let faulty =
        Span.record "defects.inject" (fun () ->
            List.map
              (fun k ->
                match D.Inject.apply c.golden defects.(k) with
                | f -> Some f
                | exception (Not_found | Invalid_argument _) -> None)
              idx)
      in
      let sims = Array.make (Array.length defects) None in
      List.iter2 (fun k f -> sims.(k) <- Option.map (fun f -> compile acc f) f) idx faulty;
      let width k = Option.map E.unknown_count sims.(k) in
      List.iter
        (fun w -> run_group sims (Array.of_list (List.filter (fun k -> width k = Some w) idx)))
        (List.sort_uniq compare (List.filter_map width idx));
      slices (start + 16)
    end
  in
  slices 0;
  (Array.to_list labels, (sim, x0))

(* ------------------------------------------------------------------ *)
(* Operating-point and Monte-Carlo passes *)

(* Returns the operating point. *)
let op_pass acc ~state ~perturb =
  let design = Span.record "cells.build" (fun () -> W.compile_c432 ~state ()) in
  let golden = Cml_cells.Compile.netlist design in
  let p = Span.record "defects.perturb" (fun () -> D.Variation.perturb ~seed:perturb golden) in
  let sim = compile acc p in
  (sim, dc acc sim (fun () -> E.dc_operating_point sim))

(* [Montecarlo.run] at jobs = 1: the nominal solves, then per sample a
   perturbed fault-free and faulty copy, compiled and solved from the
   matching nominal point.  Returns (false alarms, missed). *)
let mc_pass acc size ~seed =
  let module Sharing = Cml_dft.Sharing in
  let n = W.mc_gates size in
  let proc = Cml_cells.Process.default in
  let built = Span.record "cells.build" (fun () -> Sharing.build ~proc ~multi_emitter:true ~n ()) in
  let golden = built.Sharing.builder.Cml_cells.Builder.net in
  let defect = D.Defect.Pipe { device = Printf.sprintf "x%d.q3" (((n - 1) / 2) + 1); r = 4e3 } in
  let faulty = Span.record "defects.inject" (fun () -> D.Inject.apply golden defect) in
  let lo, hi =
    Cml_dft.Readout.thresholds Cml_dft.Readout.default_config
      ~vtest:(Cml_dft.Detector.vtest_test proc)
  in
  let nominal net =
    let sim = compile acc ~published:false net in
    (sim, dc acc sim (fun () -> E.dc_operating_point sim))
  in
  let good = nominal golden and bad = nominal faulty in
  let flagged net x_nom k =
    let p = Span.record "defects.perturb" (fun () ->
        D.Variation.perturb ~spec:D.Variation.default_spec ~seed:(seed + k) net) in
    let sim = compile acc p in
    let x =
      dc acc sim (fun () ->
          if Array.length x_nom = E.unknown_count sim then E.dc_from sim x_nom
          else E.dc_operating_point sim)
    in
    E.voltage x built.Sharing.readout.Cml_dft.Readout.vfb > (lo +. hi) /. 2.0
  in
  let false_alarms = ref 0 and missed = ref 0 in
  for k = 0 to W.mc_samples size - 1 do
    if flagged golden (snd good) k then incr false_alarms;
    if not (flagged faulty (snd bad) k) then incr missed
  done;
  ((!false_alarms, !missed), good)

(* ------------------------------------------------------------------ *)
(* LU replay *)

type replay = {
  factorize_us : float;
  refactorize_us : float;  (** dense: a full factorization again *)
  solve_us : float;
  fill_ratio : float;  (** stored factor entries over nnz(A); n^2 for dense *)
  sparse : bool;
}

(* Median per-call time of [f] over at least 5 calls and 50 ms. *)
let per_call_us f =
  f ();
  let samples = ref [] and count = ref 0 in
  let t_end = Int64.add (Clock.now_ns ()) 50_000_000L in
  while !count < 5 || (Clock.now_ns () < t_end && !count < 10_000) do
    let t0 = Clock.now_ns () in
    f ();
    samples := Clock.ns_to_us (Int64.sub (Clock.now_ns ()) t0) :: !samples;
    incr count
  done;
  Stats.median !samples

(* The LU kernels on the Newton Jacobian at an operating point, with
   the backend the engine picked for that sim. *)
let replay sim x =
  let module Sparse = Cml_numerics.Sparse in
  let module Lu = Cml_numerics.Sparse_lu in
  let module Dense = Cml_numerics.Dense in
  let g, _ = E.ac_system sim x in
  let n = E.unknown_count sim in
  let tr = Sparse.triplet_create n in
  List.iter (fun (i, j, v) -> Sparse.add tr i j v) g;
  let a = Sparse.csc_of_pattern (Sparse.compress tr) in
  let b = Array.init n (fun i -> sin (float_of_int (i + 1))) and out = Array.make n 0.0 in
  if E.lu_fill sim <> None then begin
    let f = Lu.factorize a in
    {
      factorize_us = per_call_us (fun () -> ignore (Lu.factorize a));
      refactorize_us =
        per_call_us (fun () -> if not (Lu.refactorize f a) then failwith "LU replay: refactorize refused");
      solve_us = per_call_us (fun () -> Lu.solve_into f b out);
      fill_ratio = Lu.fill_ratio f;
      sparse = true;
    }
  end
  else begin
    let m = Dense.create n in
    List.iter (fun (i, j, v) -> Dense.add_entry m i j v) g;
    let ws = Dense.ws n in
    let factorize_us = per_call_us (fun () -> Dense.factor_ws m ws) in
    {
      factorize_us;
      refactorize_us = factorize_us;
      solve_us = per_call_us (fun () -> Dense.resolve_ws ws b out);
      fill_ratio = float_of_int (n * n) /. float_of_int (Sparse.nnz a);
      sparse = false;
    }
  end

(* ------------------------------------------------------------------ *)

type outcome =
  | Labels of string list list  (** per-defect class labels *)
  | Alarms of int * int  (** Monte-Carlo false alarms and misses *)
  | Op  (** the operating point converged *)

type pass = {
  spans : Span.t list;  (** the pass's spans, root ("layer_pass") first *)
  acc : acc;
  replay : replay;
  outcome : outcome;
}

let run size inputs =
  let acc = { sims = []; tran = []; dc_newton = 0 } in
  let (outcome, (sim, x)), spans =
    Span.traced_rep "layer_pass" (fun () ->
        match inputs with
        | W.Chain { stage; defects; _ } ->
            let labels, op = campaign_pass acc (chain_circuit ~stage) ~defects in
            (Labels labels, op)
        | W.Design { defects; _ } ->
            let labels, op = campaign_pass acc (c432_circuit size) ~defects in
            (Labels labels, op)
        | W.Op { state; perturb } -> (Op, op_pass acc ~state ~perturb)
        | W.Montecarlo s ->
            let (false_alarms, missed), op = mc_pass acc size ~seed:s in
            (Alarms (false_alarms, missed), op))
  in
  (* outside the pass's root span: replay time is not workload time *)
  let replay, _ = Span.traced_rep "lu.replay" (fun () -> replay sim x) in
  { spans; acc; replay; outcome }
