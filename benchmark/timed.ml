(* One rep of a workload through the simulator's public entry points:
   the calls the timed run measures and the traced run wraps in spans. *)

module W = Workloads
module E = Cml_spice.Engine
module Campaign = Cml_defects.Campaign
module Metrics = Cml_telemetry.Metrics

let now_s () = Cml_telemetry.Clock.ns_to_s (Cml_telemetry.Clock.now_ns ())

type rep = {
  wall_s : float;  (** the whole rep, its set-up included *)
  item_s : float;  (** wall clock of the item phase *)
  items : int;  (** items attempted *)
  failed : int;  (** items that ended [Failed] or raised *)
  classes : (string * int) list;  (** class histogram of the rep's items *)
  labels : string list list;  (** per-defect class labels (campaigns) *)
  newton_iters : int;  (** Newton iterations the rep's sims published *)
  utilization : Cml_telemetry.Events.domain_util list;  (** pool rows (parallel workloads) *)
  op : (E.sim * float array) option;  (** the rep's operating point, if it converged (c432-op) *)
}

let counter (snap : Metrics.snapshot) name =
  match List.assoc_opt name snap with Some (Metrics.Counter n) -> n | Some _ | None -> 0

let entry_labels (e : Campaign.entry) =
  match e.Campaign.outcome with
  | Campaign.Failed _ -> [ "failed" ]
  | Campaign.Measured (_, f) -> Campaign.flag_labels f

let of_campaign ~wall_s (c : Campaign.t) =
  let labels = List.map entry_labels c.Campaign.entries in
  {
    wall_s;
    item_s = c.Campaign.wall_s;
    items = List.length labels;
    failed = List.assoc "failed" (Campaign.summary c);
    classes = Campaign.summary c;
    labels;
    newton_iters = counter c.Campaign.metrics "solver.newton_iters";
    utilization = c.Campaign.utilization;
    op = None;
  }

(* The campaign of one rep's inputs; [batch] and [jobs] are varied by
   the parity check, [jobs] also by the traced run's one-domain rep. *)
let campaign size ?(batch = true) ?(jobs = W.jobs) ~defects = function
  | W.Chain { stage; _ } ->
      Span.record "Campaign.run" (fun () ->
          Campaign.run ~freq:W.chain_freq ~stages:W.chain_stages ~dut:stage
            ~tstop:W.chain_tstop ~jobs ~batch ~defects ())
  | W.Design _ ->
      let design = Lazy.force W.c432 in
      let input, dut, final = W.design_ports design in
      Span.record "Campaign.run_design" (fun () ->
          Campaign.run_design ~freq:W.c432_freq ~tstop:(W.c432_tstop size) ~jobs ~batch
            ~golden:(Cml_cells.Compile.netlist design) ~input ~dut ~final ~defects ())
  | W.Op _ | W.Montecarlo _ -> invalid_arg "Timed.campaign"

let rep ?(jobs = W.jobs) size inputs =
  let t0 = now_s () in
  match inputs with
  | W.Chain { defects; _ } | W.Design { defects; _ } ->
      let c = campaign size ~jobs ~defects inputs in
      of_campaign ~wall_s:(now_s () -. t0) c
  | W.Op { state; perturb } ->
      let design = Span.record "Compile.compile" (fun () -> W.compile_c432 ~state ()) in
      let golden = Cml_cells.Compile.netlist design in
      let t1 = now_s () in
      let p = Span.record "Variation.perturb" (fun () -> Cml_defects.Variation.perturb ~seed:perturb golden) in
      let sim = Span.record "Engine.compile" (fun () -> E.compile p) in
      let x =
        Span.record "Engine.dc_operating_point" (fun () ->
            match E.dc_operating_point sim with x -> Some x | exception E.No_convergence _ -> None)
      in
      let t2 = now_s () in
      let failed = if x = None then 1 else 0 in
      {
        wall_s = t2 -. t0;
        item_s = t2 -. t1;
        items = 1;
        failed;
        classes = [ ("converged", 1 - failed); ("failed", failed) ];
        labels = [];
        newton_iters = (E.solver_stats sim).E.newton_iters;
        utilization = [];
        op = Option.map (fun x -> (sim, x)) x;
      }
  | W.Montecarlo seed -> (
      let module M = Cml_dft.Montecarlo in
      let samples = W.mc_samples size in
      match
        Span.record "Montecarlo.run" (fun () ->
            M.run ~n:(W.mc_gates size) ~samples ~jobs ~seed ())
      with
      | m ->
          {
            wall_s = now_s () -. t0;
            item_s = m.M.wall_s;
            items = samples;
            failed = 0;
            classes =
              [
                ("false-alarm", m.M.false_alarms);
                ("missed", m.M.missed);
                ("detected", samples - m.M.missed);
              ];
            labels = [];
            newton_iters = counter m.M.metrics "solver.newton_iters";
            utilization = m.M.utilization;
            op = None;
          }
      (* a sample whose every homotopy diverged aborts the whole run *)
      | exception E.No_convergence _ ->
          let wall_s = now_s () -. t0 in
          {
            wall_s;
            item_s = wall_s;
            items = samples;
            failed = samples;
            classes = [ ("failed", samples) ];
            labels = [];
            newton_iters = 0;
            utilization = [];
            op = None;
          })
