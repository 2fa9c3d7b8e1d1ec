type config = {
  tstop : float;
  max_step : float;
  min_step : float;
  lte_control : bool;
  record_every : int;
}

let config ?max_step ?min_step ?(lte_control = true) ?(record_every = 1) ~tstop () =
  let max_step = match max_step with Some h -> h | None -> tstop /. 200.0 in
  let min_step = match min_step with Some h -> h | None -> max_step /. 1e6 in
  { tstop; max_step; min_step; lte_control; record_every }

type stats = {
  accepted_steps : int;
  rejected_steps : int;
  lte_rejections : int;
  newton_iters : int;
  device_loads : int;
  bypassed_loads : int;
  guided_seeds : int;
  cold_fallbacks : int;
}

type result = {
  times : float array;
  data : float array array;
  sim : Engine.sim;
  stats : stats;
}

let collect_breakpoints net ~tstop =
  let acc = ref [] in
  Netlist.iter_devices net (fun d ->
      match d with
      | Netlist.Vsource { wave; _ } | Netlist.Isource { wave; _ } ->
          acc := List.rev_append (Waveform.breakpoints wave ~tstop) !acc
      | Netlist.Resistor _ | Netlist.Capacitor _ | Netlist.Diode _ | Netlist.Bjt _
      | Netlist.Vcvs _ | Netlist.Vccs _ -> ());
  Array.of_list (List.sort_uniq compare (tstop :: !acc))

(* Acceptance test for the predictor-based step control: the
   trapezoidal corrector must stay within a generous band around the
   linear prediction from the two previous points.  [lte_ok] decides
   and [lte_blame] attributes a rejection, through this one band. *)
let[@inline] lte_tol opts xp xi =
  (* [Float.max] of the magnitudes, NaN-propagating, written out: a
     call would box (see [Engine.max_mag]) *)
  let a = Float.abs xp and b = Float.abs xi in
  let m = if a >= b || Float.is_nan a then a else b in
  opts.Engine.lte_abstol +. (opts.Engine.lte_reltol_factor *. opts.Engine.reltol *. m)

let lte_ok opts xpred x =
  let band = ref true in
  for i = 0 to Array.length xpred - 1 do
    (* negated [<=] so a NaN corrector or prediction rejects; an
       infinite one would pass its own infinite tolerance *)
    let d = Float.abs (x.(i) -. xpred.(i)) in
    if not (Float.is_finite d && d <= lte_tol opts xpred.(i) x.(i)) then band := false
  done;
  !band

(* the node that forced an LTE rejection and its |x - xpred| / tol *)
let lte_blame opts xpred x =
  let worst = ref (-1) and wratio = ref 0.0 in
  for i = 0 to Array.length xpred - 1 do
    let ratio = Float.abs (x.(i) -. xpred.(i)) /. lte_tol opts xpred.(i) x.(i) in
    if ratio > !wratio then begin
      wratio := ratio;
      worst := i
    end
  done;
  (!worst, !wratio)

(* Recorded snapshots live in one flat row-major matrix that doubles
   on demand — one blit per accepted step instead of an [Array.copy]
   cons onto a list; rows are only materialised once at the end. *)
type recorder = {
  rnunk : int;
  mutable rbuf : float array;
  mutable rcap : int;  (** rows the buffer can hold *)
  mutable rlen : int;  (** rows recorded *)
}

let recorder_create nunk =
  let cap = 256 in
  { rnunk = nunk; rbuf = Array.make (cap * nunk) 0.0; rcap = cap; rlen = 0 }

let recorder_push r x =
  if r.rlen = r.rcap then begin
    let cap = 2 * r.rcap in
    let buf = Array.make (cap * r.rnunk) 0.0 in
    Array.blit r.rbuf 0 buf 0 (r.rlen * r.rnunk);
    r.rbuf <- buf;
    r.rcap <- cap
  end;
  Array.blit x 0 r.rbuf (r.rlen * r.rnunk) r.rnunk;
  r.rlen <- r.rlen + 1

let recorder_rows r =
  Array.init r.rlen (fun k -> Array.sub r.rbuf (k * r.rnunk) r.rnunk)

(* Streaming observers: a probe set that samples selected unknowns at
   every *accepted* step — including the ones [record_every]
   discards — without materialising the dense [times]/[data] matrix.
   Each probe streams into its own growable [Fbuf]; the shared time
   axis is recorded once.  The disabled cost is the [observe] option
   match, gated in bench/perf.ml next to the telemetry hooks. *)
type probe = {
  pb_name : string;
  pb_index : int;  (* unknown index; -1 (ground) streams zeros *)
  pb_values : Cml_numerics.Fbuf.t;
}

type observers = {
  ob_times : Cml_numerics.Fbuf.t;
  ob_probes : probe array;
  ob_on_step : (float -> float array -> unit) option;
}

let observers ?on_step probes =
  let mk (name, index) =
    if index < -1 then
      invalid_arg (Printf.sprintf "Transient.observers: bad unknown index %d for %s" index name);
    { pb_name = name; pb_index = index; pb_values = Cml_numerics.Fbuf.create () }
  in
  {
    ob_times = Cml_numerics.Fbuf.create ();
    ob_probes = Array.of_list (List.map mk probes);
    ob_on_step = on_step;
  }

let observe obs t x =
  match obs with
  | None -> ()
  | Some o ->
      Cml_numerics.Fbuf.push o.ob_times t;
      Array.iter
        (fun p ->
          Cml_numerics.Fbuf.push p.pb_values
            (if p.pb_index < 0 then 0.0 else Array.unsafe_get x p.pb_index))
        o.ob_probes;
      (match o.ob_on_step with None -> () | Some f -> f t x)

let probe_length o = Cml_numerics.Fbuf.length o.ob_times

let probe_samples o name =
  match Array.find_opt (fun p -> p.pb_name = name) o.ob_probes with
  | None -> raise Not_found
  | Some p -> (Cml_numerics.Fbuf.to_array o.ob_times, Cml_numerics.Fbuf.to_array p.pb_values)

let probe_list o =
  let times = Cml_numerics.Fbuf.to_array o.ob_times in
  Array.to_list
    (Array.map (fun p -> (p.pb_name, times, Cml_numerics.Fbuf.to_array p.pb_values)) o.ob_probes)

(* Run-boundary telemetry: one registry publish and one span per
   transient run — nothing inside the step loop. *)
module M = Cml_telemetry.Metrics

let m_runs = M.counter "transient.runs"
let m_accepted = M.counter "transient.accepted_steps"
let m_rejected = M.counter "transient.rejected_steps"
let m_lte = M.counter "transient.lte_rejections"
let m_guided = M.counter "transient.guided_seeds"
let m_cold = M.counter "transient.cold_fallbacks"
let m_seconds = M.histogram "transient.run_seconds"

let publish_run ~stats0 ~t_begin sim stats span =
  M.incr m_runs;
  M.add m_accepted stats.accepted_steps;
  M.add m_rejected stats.rejected_steps;
  M.add m_lte stats.lte_rejections;
  M.add m_guided stats.guided_seeds;
  M.add m_cold stats.cold_fallbacks;
  M.observe m_seconds
    (Cml_telemetry.Clock.ns_to_s (Int64.sub (Cml_telemetry.Clock.now_ns ()) t_begin));
  Engine.publish_metrics ~since:stats0 sim;
  Cml_telemetry.Trace.finish ~cat:"sim" "transient" span

(* Index of the guide sample closest to [t] (guide times are sorted). *)
let nearest_index times t =
  let n = Array.length times in
  let lo = ref 0 and hi = ref (n - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if times.(mid) <= t then lo := mid else hi := mid
  done;
  if Float.abs (times.(!hi) -. t) < Float.abs (times.(!lo) -. t) then !hi else !lo

(* ------------------------------------------------------------------ *)
(* The stepper: the step loop's state as an explicit record, so the
   loop body reads as one step's decision (seed, solve, LTE test,
   commit or reject) instead of a dozen loop-local refs.  A [run] is
   [stepper_create] + [stepper_start] (the DC point) + [stepper_advance]
   to [tstop] + [stepper_finish]. *)

type stepper = {
  st_sim : Engine.sim;
  st_cfg : config;
  st_opts : Engine.options;
  st_nunk : int;
  st_breakpoints : float array;
  st_guide : (float array * float array array) option;
  st_observers : observers option;
  st_stats0 : Engine.solver_stats;
  st_t_begin : int64;
  st_span : int64;  (** Trace.start token *)
  st_times : Cml_numerics.Fbuf.t;
  st_rec : recorder option;  (** [None] when [record_every = 0]: probes only *)
  st_introspect : Introspect.t option;
      (** the sim's recorder, cached at creation; every hook below is
          one match when [None] *)
  mutable st_streak : int;  (** consecutive rejections at the current instant *)
  mutable st_nsnap : int;
  mutable st_accepted : int;
  mutable st_rejected : int;
  mutable st_lte : int;
  mutable st_guided : int;
  mutable st_cold : int;
  mutable st_x_n : float array;  (** last committed solution *)
  mutable st_x_nm1 : float array;
  st_xpred : float array;
  mutable st_h_prev : float;
  mutable st_t : float;
  mutable st_h : float;
  mutable st_bp_index : int;
  mutable st_force_be : bool;
}

let stepper_create ?guide ?breakpoints ?observers sim net cfg =
  let opts = Engine.options sim in
  let nunk = Engine.unknown_count sim in
  let breakpoints =
    match breakpoints with
    | Some bps -> bps
    | None -> collect_breakpoints net ~tstop:cfg.tstop
  in
  (* a guide trajectory (typically the nominal run of a defect
     campaign) seeds each step's Newton solve with the nominal
     solution nearest in time; it must come from a layout-compatible
     sim, otherwise it is ignored *)
  let guide =
    match guide with
    | Some g when Array.length g.times > 0 && Array.length g.data > 0
                  && Array.length g.data.(0) = nunk ->
        Some (g.times, g.data)
    | Some _ | None -> None
  in
  let stats0 = Engine.solver_stats sim in
  let t_begin = Cml_telemetry.Clock.now_ns () in
  let span = Cml_telemetry.Trace.start () in
  let st =
    {
      st_sim = sim;
      st_cfg = cfg;
      st_opts = opts;
      st_nunk = nunk;
      st_breakpoints = breakpoints;
      st_guide = guide;
      st_observers = observers;
      st_stats0 = stats0;
      st_t_begin = t_begin;
      st_span = span;
      st_times = Cml_numerics.Fbuf.create ();
      st_rec = (if cfg.record_every > 0 then Some (recorder_create nunk) else None);
      st_introspect = Engine.introspect sim;
      st_streak = 0;
      st_nsnap = 0;
      st_accepted = 0;
      st_rejected = 0;
      st_lte = 0;
      st_guided = 0;
      st_cold = 0;
      st_x_n = [||];
      st_x_nm1 = [||];
      st_xpred = Array.make nunk 0.0;
      st_h_prev = 0.0;
      st_t = 0.0;
      st_h = cfg.max_step /. 10.0;
      st_bp_index = 0;
      st_force_be = true;
    }
  in
  (* skip any breakpoint at or before t = 0 *)
  while
    st.st_bp_index < Array.length st.st_breakpoints
    && st.st_breakpoints.(st.st_bp_index) <= 0.0
  do
    st.st_bp_index <- st.st_bp_index + 1
  done;
  st

(* The DC start: [x0], else a warm DC solve from the guide's initial
   point (falling back to the full homotopy ladder if it diverges),
   else the homotopy ladder. *)
let stepper_start ?x0 st =
  let sim = st.st_sim in
  let x_start =
    match x0 with
    | Some x -> x
    | None -> (
        match st.st_guide with
        | Some (_, gdata) -> (
            match Engine.newton sim ~time:0.0 ~integ:Engine.Dcop gdata.(0) with
            | Some (x, _) ->
                st.st_guided <- st.st_guided + 1;
                x
            | None ->
                st.st_cold <- st.st_cold + 1;
                Engine.dc_operating_point ~time:0.0 sim)
        | None -> Engine.dc_operating_point ~time:0.0 sim)
  in
  Engine.init_capacitor_states sim x_start;
  st.st_x_n <- x_start;
  st.st_x_nm1 <- x_start

(* observers see every accepted step; [record_every] only thins the
   dense matrix *)
let stepper_record st t x =
  observe st.st_observers t x;
  (match st.st_rec with
  | Some r ->
      if st.st_nsnap mod st.st_cfg.record_every = 0 then begin
        Cml_numerics.Fbuf.push st.st_times t;
        recorder_push r x
      end
  | None -> ());
  st.st_nsnap <- st.st_nsnap + 1

(* Advance committed time to [tstop].  A stop at a source breakpoint
   forces a BE restart with a cautious step; the final clamp to [tstop]
   (or to a caller-supplied breakpoint beyond it) is a plain stop.
   @raise Engine.No_convergence when a step fails at [min_step]. *)
let stepper_advance st =
  let cfg = st.st_cfg and sim = st.st_sim in
  while st.st_t < cfg.tstop -. (1e-12 *. cfg.tstop) do
    let next_bp =
      if st.st_bp_index < Array.length st.st_breakpoints then
        st.st_breakpoints.(st.st_bp_index)
      else cfg.tstop
    in
    let next_stop, is_bp =
      if next_bp <= cfg.tstop then (next_bp, true) else (cfg.tstop, false)
    in
    let hitting = st.st_t +. st.st_h >= next_stop -. (0.01 *. st.st_h) in
    let t_next = if hitting then next_stop else st.st_t +. st.st_h in
    let h_step = t_next -. st.st_t in
    let trap = (not st.st_force_be) && st.st_h_prev > 0.0 in
    let geq = if trap then 2.0 /. h_step else 1.0 /. h_step in
    let integ = Engine.Tran { geq; trap } in
    (* Seed order matters for speed, not correctness.  The previous
       accepted point is this trajectory's own best predictor: it keeps
       the junction voltages within the bypass window, so most device
       loads replay their caches and Newton converges in the minimum
       number of iterations.  Seeding from the guide instead (the
       nominal trajectory of a defect campaign) re-settles every
       junction against a foreign operating point each step — measured
       2.4x slower over a defect campaign — so the guide is demoted to
       a rescue: it only seeds a retry after the own-point seed failed,
       where a known-good nearby solution genuinely helps.
       [attempt_guided] travels alongside the solution so
       [guided_seeds] only counts *accepted* guide-rescued steps: an
       LTE rejection retries the same instant with a smaller step, and
       counting each retry would overstate the guide's contribution. *)
    let attempt, attempt_guided =
      match Engine.newton sim ~time:t_next ~integ st.st_x_n with
      | Some _ as ok -> (ok, false)
      | None -> begin
          match st.st_guide with
          | Some (gtimes, gdata) ->
              st.st_cold <- st.st_cold + 1;
              let seed = gdata.(nearest_index gtimes t_next) in
              (Engine.newton sim ~time:t_next ~integ seed, true)
          | None -> (None, false)
        end
    in
    let accepted =
      match attempt with
      | None -> None
      | Some (x, _iters) ->
          if cfg.lte_control && st.st_h_prev > 0.0 && not st.st_force_be then begin
            let scale = h_step /. st.st_h_prev in
            let xn = st.st_x_n and xnm1 = st.st_x_nm1 in
            let xpred = st.st_xpred in
            for i = 0 to st.st_nunk - 1 do
              xpred.(i) <- xn.(i) +. ((xn.(i) -. xnm1.(i)) *. scale)
            done;
            if lte_ok st.st_opts xpred x then Some x
            else begin
              st.st_lte <- st.st_lte + 1;
              (* blame scan only; the accept/reject decision above is
                 [lte_ok]'s alone, so recording cannot flip a step *)
              (match st.st_introspect with
              | None -> ()
              | Some r ->
                  let worst, ratio = lte_blame st.st_opts xpred x in
                  Introspect.note_lte r ~time:t_next ~h:h_step ~worst ~ratio
                    ~cascade:(st.st_streak + 1));
              None
            end
          end
          else Some x
    in
    match accepted with
    | Some x ->
        if attempt_guided then st.st_guided <- st.st_guided + 1;
        st.st_streak <- 0;
        Engine.update_capacitor_states sim x ~h:h_step ~trap;
        st.st_x_nm1 <- st.st_x_n;
        st.st_x_n <- x;
        st.st_h_prev <- h_step;
        st.st_t <- t_next;
        st.st_accepted <- st.st_accepted + 1;
        Introspect.note_dt st.st_introspect ~t:t_next ~h:h_step
          ~cause:
            (if attempt_guided then Introspect.cause_guide
             else if hitting && is_bp then Introspect.cause_breakpoint
             else Introspect.cause_accept);
        stepper_record st st.st_t x;
        if hitting && is_bp then begin
          st.st_bp_index <- st.st_bp_index + 1;
          st.st_force_be <- true;
          (* restart cautiously after a slope discontinuity *)
          st.st_h <- Float.max cfg.min_step (Float.min st.st_h (cfg.max_step /. 10.0))
        end
        else begin
          st.st_force_be <- false;
          st.st_h <- Float.min cfg.max_step (st.st_h *. 1.4)
        end
    | None ->
        st.st_rejected <- st.st_rejected + 1;
        st.st_streak <- st.st_streak + 1;
        Introspect.note_dt st.st_introspect ~t:t_next ~h:h_step
          ~cause:
            (match attempt with
            | None -> Introspect.cause_newton_fail
            | Some _ -> Introspect.cause_lte);
        let h' = h_step /. 4.0 in
        if h' < cfg.min_step then
          raise
            (Engine.No_convergence
               (Printf.sprintf "transient step failed at t = %.6g s (h = %.3g)" st.st_t h_step));
        st.st_h <- h';
        st.st_force_be <- true
  done

let stepper_finish st =
  let stats1 = Engine.solver_stats st.st_sim in
  let stats0 = st.st_stats0 in
  let stats =
    {
      accepted_steps = st.st_accepted;
      rejected_steps = st.st_rejected;
      lte_rejections = st.st_lte;
      newton_iters = stats1.Engine.newton_iters - stats0.Engine.newton_iters;
      device_loads = stats1.Engine.device_loads - stats0.Engine.device_loads;
      bypassed_loads = stats1.Engine.bypassed_loads - stats0.Engine.bypassed_loads;
      guided_seeds = st.st_guided;
      cold_fallbacks = st.st_cold;
    }
  in
  publish_run ~stats0 ~t_begin:st.st_t_begin st.st_sim stats st.st_span;
  {
    times = Cml_numerics.Fbuf.to_array st.st_times;
    data = (match st.st_rec with Some r -> recorder_rows r | None -> [||]);
    sim = st.st_sim;
    stats;
  }

(* A run left by an exception (a failed solve, an observer's abort)
   still publishes its work and closes its span, then re-raises. *)
let run ?x0 ?guide ?breakpoints ?observers sim net cfg =
  let st = stepper_create ?guide ?breakpoints ?observers sim net cfg in
  match
    stepper_start ?x0 st;
    stepper_record st 0.0 st.st_x_n;
    stepper_advance st
  with
  | () -> stepper_finish st
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (stepper_finish st);
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Batch runs: one [run] per lane, in lane order, each lane on its own
   sim ({!Engine.compile} shares one topology's layout).  A lane that
   diverges fails alone. *)

type lane_result =
  | Lane_done of result
  | Lane_failed of string
  | Lane_incompatible

let m_batch_runs = M.counter "transient.batch_runs"
let m_batch_lanes = M.counter "transient.batch_lanes"
let m_batch_diverged = M.counter "transient.batch_retired_diverged"
let m_batch_incompatible = M.counter "transient.batch_retired_incompatible"
let m_batch_size = M.histogram "transient.batch_size"

let run_batch ?guide ?breakpoints lanes net cfg =
  let n = Array.length lanes in
  if n = 0 then [||]
  else begin
    let breakpoints =
      match breakpoints with
      | Some bps -> bps
      | None -> collect_breakpoints net ~tstop:cfg.tstop
    in
    let width = Engine.unknown_count (fst lanes.(0)) in
    M.incr m_batch_runs;
    M.add m_batch_lanes n;
    M.observe m_batch_size (float_of_int n);
    Array.map
      (fun (sim, observers) ->
        if Engine.unknown_count sim <> width then begin
          M.incr m_batch_incompatible;
          Lane_incompatible
        end
        else
          match run ?guide ~breakpoints ?observers sim net cfg with
          | r -> Lane_done r
          | exception Engine.No_convergence msg ->
              M.incr m_batch_diverged;
              Lane_failed msg)
      lanes
  end

let node_trace r nd =
  let idx = Engine.node_unknown nd in
  Array.map (fun x -> if idx < 0 then 0.0 else x.(idx)) r.data

let diff_trace r a b =
  let ia = Engine.node_unknown a and ib = Engine.node_unknown b in
  let v x i = if i < 0 then 0.0 else x.(i) in
  Array.map (fun x -> v x ia -. v x ib) r.data
