type solver_kind = Dense_solver | Sparse_solver | Auto

type options = {
  reltol : float;
  vntol : float;
  abstol : float;
  gmin : float;
  max_iter : int;
  solver : solver_kind;
  bypass : bool;
  lte_reltol_factor : float;
  lte_abstol : float;
}

let default_options =
  {
    reltol = 1e-4;
    vntol = 1e-6;
    abstol = 1e-12;
    gmin = 1e-12;
    max_iter = 100;
    solver = Auto;
    bypass = true;
    lte_reltol_factor = 30.0;
    lte_abstol = 1e-4;
  }

exception No_convergence of string

type junction = { mutable v_last : float }

(* SPICE3-style bypass caches: the stamps a junction device produced
   at its last full evaluation, plus the (limited) junction voltages
   they were computed at.  When the next load finds every junction of
   the device within a safety-scaled convergence tolerance of the
   cached voltages, the exponentials and their derivatives are skipped
   and the cached stamps are replayed verbatim. *)
type dcache = {
  mutable d_valid : bool;
  mutable d_v : float;  (** limited junction voltage of the cached stamps *)
  mutable d_g : float;
  mutable d_ieq : float;
}

type bcache = {
  mutable b_valid : bool;
  mutable b_vbe : float;
  mutable b_vbc : float;
  mutable g_cb : float;
  mutable g_cc : float;
  mutable g_ce : float;
  mutable g_bb : float;
  mutable g_bc : float;
  mutable g_be : float;
  mutable g_eb : float;
  mutable g_ec : float;
  mutable g_ee : float;
  mutable i_c : float;
  mutable i_b : float;
  mutable i_e : float;
}

type sdev =
  | SRes of { i : int; j : int; g : float }
  | SCap of { i : int; j : int; c : float; mutable vprev : float; mutable iprev : float }
  | SDiode of { a : int; k : int; m : Models.diode; js : junction; dc : dcache }
  | SBjt of {
      name : string;
      c : int;
      b : int;
      e : int;
      m : Models.bjt;
      jbe : junction;
      jbc : junction;
      bc : bcache;
    }
  | SVsrc of { p : int; n : int; br : int; w : Waveform.t }
  | SIsrc of { p : int; n : int; w : Waveform.t }
  | SVcvs of { p : int; n : int; cp : int; cn : int; br : int; gain : float }
  | SVccs of { p : int; n : int; cp : int; cn : int; gm : float }

type sparse_backend = {
  trip : Cml_numerics.Sparse.triplet;
  mutable pat : Cml_numerics.Sparse.pattern option;
  mutable count : int;
  mutable lu : Cml_numerics.Sparse_lu.factor option;
      (** factor of the previous solve, kept for numeric-only
          refactorization while the Jacobian pattern and pivot
          stability allow it *)
  mutable symbolic : int;  (** full factorizations performed *)
  mutable numeric : int;  (** numeric-only refactorizations *)
  mutable shared : int;  (** symbolic analyses adopted from a donor sim *)
  mutable donor : Cml_numerics.Sparse_lu.factor option;
      (** a structurally identical sim's factor offered via
          {!share_symbolic}; tried once before the first full
          factorization *)
  mutable sstamp : int -> int -> float -> unit;
      (** prebuilt stamping closure: appends triplet entries until the
          pattern is compressed, then overwrites values in entry
          order — no per-load closure allocation *)
}

type backend =
  | BDense of { m : Cml_numerics.Dense.t; dws : Cml_numerics.Dense.ws;
                dstamp : int -> int -> float -> unit }
  | BSparse of sparse_backend

type sim = {
  opts : options;
  nv : int;  (** node-voltage unknowns *)
  nunk : int;
  sdevs : sdev array;
  branches : (string, int) Hashtbl.t;
  backend : backend;
  rhs : float array;
  ws_x : float array;  (** Newton workspace: current iterate *)
  ws_xnew : float array;  (** Newton workspace: linear-solve output *)
  mutable junction_error : float;
      (** largest |v_solution - v_limited| over all junctions during
          the last load; convergence requires this to vanish, or the
          slow creep of [pnjlim] could be mistaken for a fixed point *)
  mutable junction_worst : int;
      (** device index attaining [junction_error], -1 when no junction
          was limited during the last load *)
  mutable n_newton_iters : int;
  (* device loads and bypass-cache hits, attributed per device class *)
  mutable n_diode_loads : int;
  mutable n_diode_bypassed : int;
  mutable n_bjt_loads : int;
  mutable n_bjt_bypassed : int;
  (* stability fallbacks to a full factorization, by reason *)
  mutable n_fb_small_pivot : int;
  mutable n_fb_unstable_pivot : int;
  mutable n_fb_pattern : int;
  mutable introspect : Introspect.t option;
      (** optional solver-introspection recorder; [None] costs one
          load and one branch per hook (see {!Introspect}) *)
  (* Jacobian-reuse tracking.  A load whose junction devices all
     replayed cached stamps, with the same integration coefficient and
     gshunt as the previous load, assembled a matrix bit-identical to
     the previous one — so the previous factorization can be reused,
     and if time/srcscale/trap also match within one Newton call, the
     whole linear system is identical and the solve can be skipped. *)
  mutable n_full_evals : int;  (** junction full evaluations in the last load *)
  mutable rt_loaded : bool;  (** at least one [load] since compile / invalidation *)
  mutable rt_have_factor : bool;
      (** the backend factor matches the matrix of the last factored load *)
  mutable rt_matrix_unchanged : bool;  (** last load's matrix = previous load's *)
  mutable rt_system_identical : bool;  (** last load's matrix {e and} RHS = previous load's *)
  mutable rt_geq : float;  (** [Dcop] is encoded as 0.0; a [Tran] geq is always > 0 *)
  mutable rt_gshunt : float;
  mutable rt_time : float;
  mutable rt_srcscale : float;
  mutable rt_trap : bool;
  mutable n_reused_factors : int;
  mutable n_skipped_solves : int;
}

type integ = Dcop | Tran of { geq : float; trap : bool }

let node_unknown nd = nd - 1

let voltage x nd = if nd = 0 then 0.0 else x.(nd - 1)

let unknown_count sim = sim.nunk

let node_unknowns sim = sim.nv

let options sim = sim.opts

let branch_unknown sim name =
  match Hashtbl.find_opt sim.branches name with Some i -> i | None -> raise Not_found

let dcache_create () = { d_valid = false; d_v = 0.0; d_g = 0.0; d_ieq = 0.0 }

let bcache_create () =
  {
    b_valid = false;
    b_vbe = 0.0;
    b_vbc = 0.0;
    g_cb = 0.0;
    g_cc = 0.0;
    g_ce = 0.0;
    g_bb = 0.0;
    g_bc = 0.0;
    g_be = 0.0;
    g_eb = 0.0;
    g_ec = 0.0;
    g_ee = 0.0;
    i_c = 0.0;
    i_b = 0.0;
    i_e = 0.0;
  }

let compile ?(options = default_options) net =
  let nv = Netlist.node_count net - 1 in
  let sdevs = ref [] in
  let branches = Hashtbl.create 8 in
  let nbranch = ref 0 in
  let u = node_unknown in
  let emit d = sdevs := d :: !sdevs in
  let emit_cap i j c = if c > 0.0 then emit (SCap { i; j; c; vprev = 0.0; iprev = 0.0 }) in
  let compile_device = function
    | Netlist.Resistor { n1; n2; r; _ } ->
        if r <= 0.0 then invalid_arg "non-positive resistance";
        emit (SRes { i = u n1; j = u n2; g = 1.0 /. r })
    | Netlist.Capacitor { n1; n2; c; _ } -> emit_cap (u n1) (u n2) c
    | Netlist.Diode { anode; cathode; model; _ } ->
        emit
          (SDiode
             {
               a = u anode;
               k = u cathode;
               m = model;
               js = { v_last = 0.0 };
               dc = dcache_create ();
             });
        emit_cap (u anode) (u cathode) model.Models.d_cj
    | Netlist.Bjt { name; collector; base; emitters; model } ->
        Array.iteri
          (fun k e ->
            let name = if Array.length emitters = 1 then name else Printf.sprintf "%s#e%d" name k in
            emit
              (SBjt
                 {
                   name;
                   c = u collector;
                   b = u base;
                   e = u e;
                   m = model;
                   jbe = { v_last = 0.0 };
                   jbc = { v_last = 0.0 };
                   bc = bcache_create ();
                 });
            emit_cap (u base) (u e) model.Models.q_cje;
            emit_cap (u base) (u collector) model.Models.q_cjc)
          emitters
    | Netlist.Vsource { name; npos; nneg; wave } ->
        let br = nv + !nbranch in
        incr nbranch;
        Hashtbl.replace branches name br;
        emit (SVsrc { p = u npos; n = u nneg; br; w = wave })
    | Netlist.Isource { npos; nneg; wave; _ } ->
        emit (SIsrc { p = u npos; n = u nneg; w = wave })
    | Netlist.Vcvs { name; npos; nneg; cpos; cneg; gain } ->
        let br = nv + !nbranch in
        incr nbranch;
        Hashtbl.replace branches name br;
        emit (SVcvs { p = u npos; n = u nneg; cp = u cpos; cn = u cneg; br; gain })
    | Netlist.Vccs { npos; nneg; cpos; cneg; gm; _ } ->
        emit (SVccs { p = u npos; n = u nneg; cp = u cpos; cn = u cneg; gm })
  in
  Netlist.iter_devices net compile_device;
  let nunk = nv + !nbranch in
  let use_sparse =
    match options.solver with
    | Dense_solver -> false
    | Sparse_solver -> true
    | Auto -> nunk > 60
  in
  let backend =
    if use_sparse then begin
      let sp =
        {
          trip = Cml_numerics.Sparse.triplet_create nunk;
          pat = None;
          count = 0;
          lu = None;
          symbolic = 0;
          numeric = 0;
          shared = 0;
          donor = None;
          sstamp = (fun _ _ _ -> ());
        }
      in
      sp.sstamp <-
        (fun i j v -> if i >= 0 && j >= 0 then Cml_numerics.Sparse.add sp.trip i j v);
      BSparse sp
    end
    else begin
      let m = Cml_numerics.Dense.create nunk in
      BDense
        {
          m;
          dws = Cml_numerics.Dense.ws nunk;
          dstamp = (fun i j v -> if i >= 0 && j >= 0 then Cml_numerics.Dense.add_entry m i j v);
        }
    end
  in
  {
    opts = options;
    nv;
    nunk;
    sdevs = Array.of_list (List.rev !sdevs);
    branches;
    backend;
    rhs = Array.make nunk 0.0;
    ws_x = Array.make nunk 0.0;
    ws_xnew = Array.make nunk 0.0;
    junction_error = 0.0;
    junction_worst = -1;
    n_newton_iters = 0;
    n_diode_loads = 0;
    n_diode_bypassed = 0;
    n_bjt_loads = 0;
    n_bjt_bypassed = 0;
    n_fb_small_pivot = 0;
    n_fb_unstable_pivot = 0;
    n_fb_pattern = 0;
    introspect = None;
    n_full_evals = 0;
    rt_loaded = false;
    rt_have_factor = false;
    rt_matrix_unchanged = false;
    rt_system_identical = false;
    rt_geq = nan;
    rt_gshunt = nan;
    rt_time = nan;
    rt_srcscale = nan;
    rt_trap = false;
    n_reused_factors = 0;
    n_skipped_solves = 0;
  }

(* ------------------------------------------------------------------ *)
(* Assembly.

   The entry *sequence* produced by [load] is identical on every call
   (same devices, same order, zero-valued entries included; a bypassed
   device replays exactly the stamps of its full evaluation), which is
   what lets the sparse backend compress the pattern once and then
   only refresh numeric values. *)

let[@inline] vof x i = if i < 0 then 0.0 else x.(i)

let[@inline] inject rhs i v = if i >= 0 then rhs.(i) <- rhs.(i) +. v

let[@inline] stamp_conductance stamp i j g =
  stamp i i g;
  stamp j j g;
  stamp i j (-.g);
  stamp j i (-.g)

(* Safety factor applied to the reltol/vntol convergence tolerance
   before it is used as the bypass threshold: a bypassed device's
   stamps are stale by at most the threshold, so the fixed point the
   solver finds can be off by the same order — keeping the threshold
   a decade under the convergence tolerance keeps the node-voltage
   deviation between bypass-on and bypass-off runs well inside
   10 x vntol (asserted by a property test). *)
let bypass_safety = 0.1

let[@inline] bypass_close opts vnew vcache =
  Float.abs (vnew -. vcache)
  <= bypass_safety
     *. ((opts.reltol *. Float.max (Float.abs vnew) (Float.abs vcache)) +. opts.vntol)

(* Running max of the junction-limiting error.  The negated [<=] takes
   a NaN error in (any comparison with NaN is false) and a recorded
   NaN is never displaced, so a non-finite junction voltage cannot
   read as settled; on finite errors this is the plain [err >] max. *)
let[@inline] note_junction_error sim err di =
  if not (err <= sim.junction_error || Float.is_nan sim.junction_error) then begin
    sim.junction_error <- err;
    sim.junction_worst <- di
  end

(* Assembly core, parameterised on the matrix stamp: [load] targets
   the compiled backend, [ac_system] a triplet collector.  [stamp]
   receives raw unknown indices and must ignore negative (ground)
   ones itself.  [bypass] enables the device-bypass fast path (off for
   the AC linearisation, which wants the exact Jacobian).  Apart from
   the [stamp] closure itself — prebuilt per backend — the hot path
   allocates nothing. *)
let assemble sim ~x ~time ~integ ~srcscale ~gshunt ~bypass ~stamp =
  let rhs = sim.rhs in
  Array.fill rhs 0 sim.nunk 0.0;
  let opts = sim.opts in
  let gmin = opts.gmin in
  let nvt = Models.boltzmann_vt in
  sim.junction_error <- 0.0;
  sim.junction_worst <- -1;
  sim.n_full_evals <- 0;
  (* gshunt diagonal for every node unknown: also guarantees a
     structurally non-empty diagonal for the sparse pattern *)
  for i = 0 to sim.nv - 1 do
    stamp i i gshunt
  done;
  let sdevs = sim.sdevs in
  for di = 0 to Array.length sdevs - 1 do
    match sdevs.(di) with
    | SRes { i; j; g } -> stamp_conductance stamp i j g
    | SCap { i; j; c; vprev; iprev } ->
        let g, irhs =
          match integ with
          | Dcop -> (0.0, 0.0)
          | Tran { geq; trap } ->
              let g = geq *. c in
              (g, (g *. vprev) +. if trap then iprev else 0.0)
        in
        stamp_conductance stamp i j g;
        inject rhs i irhs;
        inject rhs j (-.irhs)
    | SDiode { a; k; m; js; dc } ->
        sim.n_diode_loads <- sim.n_diode_loads + 1;
        let vnew = vof x a -. vof x k in
        if bypass && dc.d_valid && bypass_close opts vnew dc.d_v then begin
          sim.n_diode_bypassed <- sim.n_diode_bypassed + 1;
          stamp_conductance stamp a k dc.d_g;
          inject rhs a dc.d_ieq;
          inject rhs k (-.dc.d_ieq)
        end
        else begin
          sim.n_full_evals <- sim.n_full_evals + 1;
          let n_nvt = m.Models.d_n *. nvt in
          let vlim =
            Models.pnjlim ~vnew ~vold:js.v_last ~nvt:n_nvt
              ~vcrit:(Models.vcrit ~is:m.Models.d_is ~nvt:n_nvt)
          in
          js.v_last <- vlim;
          note_junction_error sim (Float.abs (vnew -. vlim)) di;
          let id, gd = Models.junction_current ~is:m.Models.d_is ~nvt:n_nvt vlim in
          let g = gd +. gmin and i0 = id +. (gmin *. vlim) in
          stamp_conductance stamp a k g;
          let ieq = (g *. vlim) -. i0 in
          inject rhs a ieq;
          inject rhs k (-.ieq);
          dc.d_valid <- true;
          dc.d_v <- vlim;
          dc.d_g <- g;
          dc.d_ieq <- ieq
        end
    | SBjt { c; b; e; m; jbe; jbc; bc; name = _ } ->
        sim.n_bjt_loads <- sim.n_bjt_loads + 1;
        let vbe_new = vof x b -. vof x e in
        let vbc_new = vof x b -. vof x c in
        if
          bypass && bc.b_valid
          && bypass_close opts vbe_new bc.b_vbe
          && bypass_close opts vbc_new bc.b_vbc
        then begin
          sim.n_bjt_bypassed <- sim.n_bjt_bypassed + 1;
          stamp c b bc.g_cb;
          stamp c c bc.g_cc;
          stamp c e bc.g_ce;
          stamp b b bc.g_bb;
          stamp b c bc.g_bc;
          stamp b e bc.g_be;
          stamp e b bc.g_eb;
          stamp e c bc.g_ec;
          stamp e e bc.g_ee;
          inject rhs c bc.i_c;
          inject rhs b bc.i_b;
          inject rhs e bc.i_e
        end
        else begin
          sim.n_full_evals <- sim.n_full_evals + 1;
          let vcrit = Models.vcrit ~is:m.Models.q_is ~nvt in
          let vbe =
            let v = Models.pnjlim ~vnew:vbe_new ~vold:jbe.v_last ~nvt ~vcrit in
            jbe.v_last <- v;
            note_junction_error sim (Float.abs (vbe_new -. v)) di;
            v
          in
          let vbc =
            let v = Models.pnjlim ~vnew:vbc_new ~vold:jbc.v_last ~nvt ~vcrit in
            jbc.v_last <- v;
            note_junction_error sim (Float.abs (vbc_new -. v)) di;
            v
          in
          let ift, gif = Models.junction_current ~is:m.Models.q_is ~nvt vbe in
          let irt, gir = Models.junction_current ~is:m.Models.q_is ~nvt vbc in
          let icc = ift -. irt in
          let ibe = (ift /. m.Models.q_bf) +. (gmin *. vbe) in
          let gbe = (gif /. m.Models.q_bf) +. gmin in
          let ibc = (irt /. m.Models.q_br) +. (gmin *. vbc) in
          let gbc = (gir /. m.Models.q_br) +. gmin in
          let ic0 = icc -. ibc in
          let ib0 = ibe +. ibc in
          let ie0 = -.icc -. ibe in
          (* rows: partial derivatives wrt (Vb, Vc, Ve) *)
          let dic_dvb = gif -. gir -. gbc
          and dic_dvc = gir +. gbc
          and dic_dve = -.gif in
          let dib_dvb = gbe +. gbc and dib_dvc = -.gbc and dib_dve = -.gbe in
          let die_dvb = -.gif -. gbe +. gir and die_dvc = -.gir and die_dve = gif +. gbe in
          let ic_rhs = (gif *. vbe) +. (((-.gir) -. gbc) *. vbc) -. ic0 in
          let ib_rhs = (gbe *. vbe) +. (gbc *. vbc) -. ib0 in
          let ie_rhs = (((-.gif) -. gbe) *. vbe) +. (gir *. vbc) -. ie0 in
          stamp c b dic_dvb;
          stamp c c dic_dvc;
          stamp c e dic_dve;
          stamp b b dib_dvb;
          stamp b c dib_dvc;
          stamp b e dib_dve;
          stamp e b die_dvb;
          stamp e c die_dvc;
          stamp e e die_dve;
          inject rhs c ic_rhs;
          inject rhs b ib_rhs;
          inject rhs e ie_rhs;
          bc.b_valid <- true;
          bc.b_vbe <- vbe;
          bc.b_vbc <- vbc;
          bc.g_cb <- dic_dvb;
          bc.g_cc <- dic_dvc;
          bc.g_ce <- dic_dve;
          bc.g_bb <- dib_dvb;
          bc.g_bc <- dib_dvc;
          bc.g_be <- dib_dve;
          bc.g_eb <- die_dvb;
          bc.g_ec <- die_dvc;
          bc.g_ee <- die_dve;
          bc.i_c <- ic_rhs;
          bc.i_b <- ib_rhs;
          bc.i_e <- ie_rhs
        end
    | SVsrc { p; n; br; w } ->
        stamp br p 1.0;
        stamp br n (-1.0);
        stamp p br 1.0;
        stamp n br (-1.0);
        rhs.(br) <- rhs.(br) +. (srcscale *. Waveform.value w time)
    | SIsrc { p; n; w } ->
        let i = srcscale *. Waveform.value w time in
        inject rhs p (-.i);
        inject rhs n i
    | SVcvs { p; n; cp; cn; br; gain } ->
        stamp br p 1.0;
        stamp br n (-1.0);
        stamp br cp (-.gain);
        stamp br cn gain;
        stamp p br 1.0;
        stamp n br (-1.0)
    | SVccs { p; n; cp; cn; gm } ->
        stamp p cp gm;
        stamp p cn (-.gm);
        stamp n cp (-.gm);
        stamp n cn gm
  done

let load sim ~x ~time ~integ ~srcscale ~gshunt =
  let stamp =
    match sim.backend with
    | BDense { m; dstamp; _ } ->
        Cml_numerics.Dense.clear m;
        dstamp
    | BSparse sp ->
        sp.count <- 0;
        sp.sstamp
  in
  assemble sim ~x ~time ~integ ~srcscale ~gshunt ~bypass:sim.opts.bypass ~stamp;
  (match sim.backend with
  | BDense _ -> ()
  | BSparse sp -> begin
      match sp.pat with
      | None ->
          sp.pat <- Some (Cml_numerics.Sparse.compress sp.trip);
          (* from now on only values are refreshed, in entry order *)
          sp.sstamp <-
            (fun i j v ->
              if i >= 0 && j >= 0 then begin
                Cml_numerics.Sparse.set_values sp.trip sp.count v;
                sp.count <- sp.count + 1
              end)
      | Some pat -> Cml_numerics.Sparse.refill pat sp.trip
    end);
  (* Jacobian-reuse bookkeeping.  The matrix depends only on the fixed
     linear stamps, the integration coefficient (geq * C for caps; 0.0
     encodes DC and a transient geq is always positive), gshunt and
     the junction stamps — so when every junction device replayed its
     cache ([n_full_evals] = 0) and geq/gshunt match the previous
     load, the assembled matrix is bit-identical to the previous one.
     The RHS additionally depends on time, srcscale, trap and the
     capacitor companion states; the latter only change between Newton
     calls, which is why [newton] limits the solve-skip to consecutive
     iterations of one call. *)
  let geq, trap = match integ with Dcop -> (0.0, false) | Tran { geq; trap } -> (geq, trap) in
  let matrix_unchanged =
    sim.rt_loaded && sim.n_full_evals = 0 && geq = sim.rt_geq && gshunt = sim.rt_gshunt
  in
  sim.rt_matrix_unchanged <- matrix_unchanged;
  sim.rt_system_identical <-
    matrix_unchanged && time = sim.rt_time && srcscale = sim.rt_srcscale && trap = sim.rt_trap;
  sim.rt_loaded <- true;
  sim.rt_geq <- geq;
  sim.rt_gshunt <- gshunt;
  sim.rt_time <- time;
  sim.rt_srcscale <- srcscale;
  sim.rt_trap <- trap

let solve_linear_into sim out =
  let reuse = sim.rt_matrix_unchanged && sim.rt_have_factor in
  match sim.backend with
  | BDense { m; dws; _ } ->
      if reuse then begin
        sim.n_reused_factors <- sim.n_reused_factors + 1;
        Cml_numerics.Dense.resolve_ws dws sim.rhs out
      end
      else begin
        sim.rt_have_factor <- false;
        Cml_numerics.Dense.factor_ws m dws;
        sim.rt_have_factor <- true;
        Cml_numerics.Dense.resolve_ws dws sim.rhs out
      end
  | BSparse ({ pat = Some pat; _ } as sp) -> begin
      match sp.lu with
      | Some f when reuse ->
          sim.n_reused_factors <- sim.n_reused_factors + 1;
          Cml_numerics.Sparse_lu.solve_into f sim.rhs out
      | _ ->
          sim.rt_have_factor <- false;
          let a = Cml_numerics.Sparse.csc_of_pattern pat in
          (* the pattern of an MNA Jacobian is fixed across Newton
             iterations and timesteps, so the symbolic work (DFS reach,
             pivot order, fill pattern, buffer allocation) is done once
             and only the numeric elimination repeats; a degraded pivot
             falls back to a full factorization with a fresh pivot order *)
          let fresh_factorize () =
            let f = Cml_numerics.Sparse_lu.factorize a in
            sp.lu <- Some f;
            sp.symbolic <- sp.symbolic + 1;
            f
          in
          (* a refactorize that bailed forces a full factorization;
             attribute the fallback to its recorded reason *)
          let note_fallback f =
            let reason =
              match Cml_numerics.Sparse_lu.last_refactor_failure f with
              | Some (Cml_numerics.Sparse_lu.Small_pivot _) ->
                  sim.n_fb_small_pivot <- sim.n_fb_small_pivot + 1;
                  Introspect.lu_small_pivot
              | Some (Cml_numerics.Sparse_lu.Unstable_pivot _) ->
                  sim.n_fb_unstable_pivot <- sim.n_fb_unstable_pivot + 1;
                  Introspect.lu_unstable_pivot
              | Some Cml_numerics.Sparse_lu.Mismatched_pattern | None ->
                  sim.n_fb_pattern <- sim.n_fb_pattern + 1;
                  Introspect.lu_pattern
            in
            Introspect.note_lu_fallback sim.introspect ~reason
          in
          let f =
            match sp.lu with
            | Some f when Cml_numerics.Sparse_lu.refactorize f a ->
                sp.numeric <- sp.numeric + 1;
                f
            | Some f ->
                note_fallback f;
                fresh_factorize ()
            | None -> begin
                (* first factorization: a donor sim of the same design
                   may have offered its symbolic analysis — adopt it
                   (ordering, patterns, pivot order) and only run the
                   numeric elimination, unless its pivot order is
                   unstable for this sim's values *)
                match sp.donor with
                | None -> fresh_factorize ()
                | Some d -> begin
                    sp.donor <- None;
                    match Cml_numerics.Sparse_lu.adopt_symbolic d a with
                    | Some f when Cml_numerics.Sparse_lu.refactorize f a ->
                        sp.lu <- Some f;
                        sp.shared <- sp.shared + 1;
                        f
                    | Some f ->
                        (* the donor's pivot order is unstable for
                           this sim's values *)
                        note_fallback f;
                        fresh_factorize ()
                    | None -> fresh_factorize ()
                  end
              end
          in
          sim.rt_have_factor <- true;
          Cml_numerics.Sparse_lu.solve_into f sim.rhs out
    end
  | BSparse { pat = None; _ } -> assert false

type solver_stats = {
  symbolic_factorizations : int;
  numeric_refactorizations : int;
  shared_symbolic : int;
  newton_iters : int;
  device_loads : int;
  bypassed_loads : int;
  diode_loads : int;
  diode_bypassed : int;
  bjt_loads : int;
  bjt_bypassed : int;
  reused_factorizations : int;
  skipped_solves : int;
  fallback_small_pivot : int;
  fallback_unstable_pivot : int;
  fallback_pattern : int;
  lu_nnz_factors : int;
  lu_fill_ratio : float;
  lu_ordering : string;
  lu_pivot_growth : float;
  lu_condition : float;
}

let solver_stats sim =
  let symbolic, numeric, shared, lu, health =
    match sim.backend with
    | BDense _ -> (0, 0, 0, None, None)
    | BSparse { symbolic; numeric; shared; lu; pat; _ } ->
        (* run-boundary call: the O(nnz) health scan is off the solve
           path by construction *)
        let health =
          match (lu, pat) with
          | Some f, Some p ->
              Some (Cml_numerics.Sparse_lu.health f (Cml_numerics.Sparse.csc_of_pattern p))
          | (Some _ | None), _ -> None
        in
        (symbolic, numeric, shared, lu, health)
  in
  {
    symbolic_factorizations = symbolic;
    numeric_refactorizations = numeric;
    shared_symbolic = shared;
    newton_iters = sim.n_newton_iters;
    device_loads = sim.n_diode_loads + sim.n_bjt_loads;
    bypassed_loads = sim.n_diode_bypassed + sim.n_bjt_bypassed;
    diode_loads = sim.n_diode_loads;
    diode_bypassed = sim.n_diode_bypassed;
    bjt_loads = sim.n_bjt_loads;
    bjt_bypassed = sim.n_bjt_bypassed;
    reused_factorizations = sim.n_reused_factors;
    skipped_solves = sim.n_skipped_solves;
    fallback_small_pivot = sim.n_fb_small_pivot;
    fallback_unstable_pivot = sim.n_fb_unstable_pivot;
    fallback_pattern = sim.n_fb_pattern;
    lu_nnz_factors =
      (match lu with
      | Some f ->
          let nl, nu = Cml_numerics.Sparse_lu.lu_nnz f in
          nl + nu
      | None -> 0);
    lu_fill_ratio = (match lu with Some f -> Cml_numerics.Sparse_lu.fill_ratio f | None -> 0.0);
    lu_ordering = (match lu with Some f -> Cml_numerics.Sparse_lu.ordering_name f | None -> "");
    lu_pivot_growth =
      (match health with Some h -> h.Cml_numerics.Sparse_lu.pivot_growth | None -> 0.0);
    lu_condition =
      (match health with Some h -> h.Cml_numerics.Sparse_lu.condition_estimate | None -> 0.0);
  }

let zero_stats =
  {
    symbolic_factorizations = 0;
    numeric_refactorizations = 0;
    shared_symbolic = 0;
    newton_iters = 0;
    device_loads = 0;
    bypassed_loads = 0;
    diode_loads = 0;
    diode_bypassed = 0;
    bjt_loads = 0;
    bjt_bypassed = 0;
    reused_factorizations = 0;
    skipped_solves = 0;
    fallback_small_pivot = 0;
    fallback_unstable_pivot = 0;
    fallback_pattern = 0;
    lu_nnz_factors = 0;
    lu_fill_ratio = 0.0;
    lu_ordering = "";
    lu_pivot_growth = 0.0;
    lu_condition = 0.0;
  }

let set_introspect sim r = sim.introspect <- r

let introspect sim = sim.introspect

(* Attribution label for a device index reported by the recorder
   (worst-junction blame): BJTs carry their netlist name, diodes are
   identified by their terminals. *)
let device_label sim di =
  if di < 0 || di >= Array.length sim.sdevs then Printf.sprintf "device[%d]" di
  else
    match sim.sdevs.(di) with
    | SBjt { name; _ } -> name
    | SDiode { a; k; _ } -> Printf.sprintf "diode[%d-%d]" (a + 1) (k + 1)
    | SRes _ | SCap _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ ->
        Printf.sprintf "device[%d]" di

let share_symbolic ~donor sim =
  match (donor.backend, sim.backend) with
  | BSparse d, BSparse s -> ( match d.lu with Some f -> s.donor <- Some f | None -> ())
  | (BDense _ | BSparse _), (BDense _ | BSparse _) -> ()

let lu_fill sim =
  match sim.backend with
  | BDense _ | BSparse { lu = None; _ } -> None
  | BSparse { lu = Some f; _ } -> Some (Cml_numerics.Sparse_lu.lu_nnz f)

(* Global metrics-registry handles.  Per-iteration counting stays in
   the plain mutable [sim] fields above (no atomics on the Newton
   loop); [publish_metrics] folds a sim's counter deltas into the
   registry at run boundaries — end of a transient, a sweep, a
   Monte-Carlo sample. *)
module M = Cml_telemetry.Metrics

let m_newton_iters = M.counter "solver.newton_iters"
let m_symbolic = M.counter "solver.symbolic_factorizations"
let m_numeric = M.counter "solver.numeric_refactorizations"
let m_device_loads = M.counter "engine.device_loads"
let m_bypassed = M.counter "engine.bypassed_loads"
let m_reused = M.counter "solver.reused_factorizations"
let m_skipped = M.counter "solver.skipped_solves"
let m_shared = M.counter "solver.shared_symbolic"
let m_lu_fill = M.gauge "solver.lu_fill_nnz"
let m_lu_fill_ratio = M.gauge "solver.lu_fill_ratio"
let m_ordering_amd = M.counter "solver.ordering.amd"
let m_ordering_natural = M.counter "solver.ordering.natural"
let m_fb_small = M.counter "solver.fallback.small_pivot"
let m_fb_unstable = M.counter "solver.fallback.unstable_pivot"
let m_fb_pattern = M.counter "solver.fallback.pattern"
let m_pivot_growth = M.gauge "solver.lu_pivot_growth"
let m_condition = M.gauge "solver.lu_condition"
let m_diode_loads = M.counter "engine.diode_loads"
let m_diode_bypassed = M.counter "engine.diode_bypassed"
let m_bjt_loads = M.counter "engine.bjt_loads"
let m_bjt_bypassed = M.counter "engine.bjt_bypassed"

let publish_metrics ?(since = zero_stats) sim =
  let now = solver_stats sim in
  M.add m_newton_iters (now.newton_iters - since.newton_iters);
  M.add m_symbolic (now.symbolic_factorizations - since.symbolic_factorizations);
  M.add m_numeric (now.numeric_refactorizations - since.numeric_refactorizations);
  M.add m_device_loads (now.device_loads - since.device_loads);
  M.add m_bypassed (now.bypassed_loads - since.bypassed_loads);
  M.add m_reused (now.reused_factorizations - since.reused_factorizations);
  M.add m_skipped (now.skipped_solves - since.skipped_solves);
  M.add m_shared (now.shared_symbolic - since.shared_symbolic);
  M.add m_diode_loads (now.diode_loads - since.diode_loads);
  M.add m_diode_bypassed (now.diode_bypassed - since.diode_bypassed);
  M.add m_bjt_loads (now.bjt_loads - since.bjt_loads);
  M.add m_bjt_bypassed (now.bjt_bypassed - since.bjt_bypassed);
  M.add m_fb_small (now.fallback_small_pivot - since.fallback_small_pivot);
  M.add m_fb_unstable (now.fallback_unstable_pivot - since.fallback_unstable_pivot);
  M.add m_fb_pattern (now.fallback_pattern - since.fallback_pattern);
  if now.lu_nnz_factors > 0 then begin
    M.set m_lu_fill (float_of_int now.lu_nnz_factors);
    M.set m_lu_fill_ratio now.lu_fill_ratio;
    M.set m_pivot_growth now.lu_pivot_growth;
    M.set m_condition now.lu_condition;
    (* count symbolic analyses — computed or adopted from a donor — by
       the ordering they ended up with, so a metrics snapshot shows
       which path large designs actually take *)
    let fresh =
      now.symbolic_factorizations - since.symbolic_factorizations + now.shared_symbolic
      - since.shared_symbolic
    in
    if fresh > 0 then
      M.add (if now.lu_ordering = "amd" then m_ordering_amd else m_ordering_natural) fresh
  end

let converged sim x x' =
  let ok = ref true in
  for i = 0 to sim.nunk - 1 do
    let tol =
      if i < sim.nv then sim.opts.vntol +. (sim.opts.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i)))
      else sim.opts.abstol +. (sim.opts.reltol *. Float.max (Float.abs x.(i)) (Float.abs x'.(i)))
    in
    (* negated [<=]: a NaN delta or tolerance compares false, so a NaN
       iterate rejects instead of slipping through *)
    if not (Float.abs (x'.(i) -. x.(i)) <= tol) then ok := false
  done;
  !ok

let set_junction_states sim x =
  Array.iter
    (function
      | SDiode { a; k; js; _ } -> js.v_last <- vof x a -. vof x k
      | SBjt { c; b; e; jbe; jbc; _ } ->
          jbe.v_last <- vof x b -. vof x e;
          jbc.v_last <- vof x b -. vof x c
      | SRes _ | SCap _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ())
    sim.sdevs

(* The iterate loop works entirely in the per-sim workspace ([ws_x],
   [ws_xnew], the backend matrix/factor scratch): no vector or matrix
   is allocated per iteration, only the converged solution is copied
   out once on success. *)
let newton sim ~time ~integ ?(srcscale = 1.0) ?(gshunt = 0.0) x0 =
  (* token span, not [with_span]: this is the inner hot path, and the
     token API keeps the disabled cost to one atomic load + branch
     with no closure or argument allocation *)
  let tok = Cml_telemetry.Trace.start () in
  set_junction_states sim x0;
  let x = sim.ws_x and xn = sim.ws_xnew in
  Array.blit x0 0 x 0 sim.nunk;
  let rec iterate iter =
    if iter > sim.opts.max_iter then None
    else begin
      load sim ~x ~time ~integ ~srcscale ~gshunt;
      sim.n_newton_iters <- sim.n_newton_iters + 1;
      (* Identical-system acceptance: for [iter > 0] the previous
         iteration solved the system the previous load assembled, and
         its solution is the current iterate [x].  When this load
         produced a bit-identical system (every junction bypassed,
         same geq/gshunt/time/srcscale/trap; capacitor states cannot
         move inside one Newton call), solving again would return [x]
         exactly — a zero-delta, junction-settled, converged accept.
         Skip the solve and accept [x] directly; this is bit-exact
         with the unskipped path. *)
      if iter > 0 && sim.rt_system_identical then begin
        sim.n_skipped_solves <- sim.n_skipped_solves + 1;
        Some (Cml_numerics.Vec.copy x, iter)
      end
      else
        match solve_linear_into sim xn with
        | exception (Cml_numerics.Dense.Singular _ | Cml_numerics.Sparse_lu.Singular _) -> None
        | () ->
            Introspect.note_newton sim.introspect ~time ~iter ~x ~xn
              ~junction_error:sim.junction_error ~junction_worst:sim.junction_worst;
            let junctions_settled = sim.junction_error <= sim.opts.vntol +. (sim.opts.reltol *. 1.0) in
            if iter > 0 && junctions_settled && converged sim x xn then
              Some (Cml_numerics.Vec.copy xn, iter)
            else begin
              Array.blit xn 0 x 0 sim.nunk;
              iterate (iter + 1)
            end
    end
  in
  let result = iterate 0 in
  (match result with
  | None -> Introspect.note_newton_fail sim.introspect ~time
  | Some _ -> ());
  Cml_telemetry.Trace.finish ~cat:"solver" "newton_solve" tok;
  result

let zeros sim = Array.make sim.nunk 0.0

let gmin_levels =
  [
    1e-2; 3e-3; 1e-3; 3e-4; 1e-4; 3e-5; 1e-5; 3e-6; 1e-6; 1e-7; 1e-8; 1e-9; 1e-10; 1e-11;
    1e-12; 0.0;
  ]


let dc_homotopy sim ~time x0 =
  (* plain Newton first *)
  match newton sim ~time ~integ:Dcop x0 with
  | Some (x, _) -> Some x
  | None ->
      (* gmin stepping; a level that fails is skipped (the next,
         gentler level often converges from the same start), but the
         final gshunt = 0 solve must succeed *)
      let rec gmin_walk x = function
        | [] -> Some x
        | g :: rest -> begin
            match newton sim ~time ~integ:Dcop ~gshunt:g x with
            | Some (x', _) -> gmin_walk x' rest
            | None -> if rest = [] then None else gmin_walk x rest
          end
      in
      let gmin_result = gmin_walk (zeros sim) gmin_levels in
      (match gmin_result with
      | Some x -> Some x
      | None ->
          (* adaptive source stepping: on failure, bisect toward the
             last converged scale; on success, grow the step *)
          let rec src_walk x s_done step budget =
            if s_done >= 1.0 then Some x
            else if budget = 0 || step < 1e-4 then None
            else begin
              let target = Float.min 1.0 (s_done +. step) in
              match newton sim ~time ~integ:Dcop ~srcscale:target x with
              | Some (x', _) -> src_walk x' target (step *. 2.0) (budget - 1)
              | None -> src_walk x s_done (step /. 2.0) (budget - 1)
            end
          in
          src_walk (zeros sim) 0.0 0.1 60)

let dc_operating_point ?(time = 0.0) sim =
  Cml_telemetry.Trace.with_span ~cat:"sim" "dc" (fun () ->
      match dc_homotopy sim ~time (zeros sim) with
      | Some x -> x
      | None -> raise (No_convergence "dc operating point"))

let dc_from ?(time = 0.0) sim x0 =
  Cml_telemetry.Trace.with_span ~cat:"sim" "dc" (fun () ->
      match newton sim ~time ~integ:Dcop x0 with
      | Some (x, _) -> x
      | None -> (
          match dc_homotopy sim ~time (zeros sim) with
          | Some x -> x
          | None -> raise (No_convergence "dc continuation")))

let init_capacitor_states sim x =
  Array.iter
    (function
      | SCap c ->
          c.vprev <- vof x c.i -. vof x c.j;
          c.iprev <- 0.0
      | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ())
    sim.sdevs

let update_capacitor_states sim x ~h ~trap =
  Array.iter
    (function
      | SCap c ->
          let v = vof x c.i -. vof x c.j in
          let i_new =
            if trap then (2.0 *. c.c /. h *. (v -. c.vprev)) -. c.iprev
            else c.c /. h *. (v -. c.vprev)
          in
          c.vprev <- v;
          c.iprev <- i_new
      | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ())
    sim.sdevs

let ac_system sim x =
  set_junction_states sim x;
  (* this assembly full-evaluates every junction into a side triplet,
     refreshing the bypass caches without touching the backend matrix:
     the factor and the previous-load fingerprint are both stale now *)
  sim.rt_loaded <- false;
  sim.rt_have_factor <- false;
  (* collect the conductance stamps straight off the device sweep
     into a triplet (compression sums duplicates), instead of probing
     every cell of the assembled backend matrix — the dense backend
     made that an O(n^2) scan with a cons per probe.  Bypass is off:
     the small-signal G must be the exact linearisation at [x], not a
     cached one. *)
  let trip = Cml_numerics.Sparse.triplet_create sim.nunk in
  let stamp i j v = if i >= 0 && j >= 0 then Cml_numerics.Sparse.add trip i j v in
  assemble sim ~x ~time:0.0 ~integ:Dcop ~srcscale:1.0 ~gshunt:0.0 ~bypass:false ~stamp;
  let a = Cml_numerics.Sparse.csc_of_pattern (Cml_numerics.Sparse.compress trip) in
  let g_entries =
    let acc = ref [] in
    for j = 0 to a.Cml_numerics.Sparse.n - 1 do
      for p = a.Cml_numerics.Sparse.colptr.(j) to a.Cml_numerics.Sparse.colptr.(j + 1) - 1 do
        let v = a.Cml_numerics.Sparse.values.(p) in
        if v <> 0.0 then acc := (a.Cml_numerics.Sparse.rowind.(p), j, v) :: !acc
      done
    done;
    !acc
  in
  let c_entries =
    Array.fold_left
      (fun acc d ->
        match d with
        | SCap { i; j; c; _ } ->
            let add acc a bt v = if a >= 0 && bt >= 0 then (a, bt, v) :: acc else acc in
            add (add (add (add acc i i c) j j c) i j (-.c)) j i (-.c)
        | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> acc)
      [] sim.sdevs
  in
  (g_entries, c_entries)


type bjt_op = { q_name : string; vbe : float; vce : float; ic : float; ib : float }

let bjt_report sim x =
  let nvt = Models.boltzmann_vt in
  let rev =
    Array.fold_left
      (fun acc d ->
        match d with
        | SBjt { name; c; b; e; m; _ } ->
            let vbe = vof x b -. vof x e and vbc = vof x b -. vof x c in
            let ift, _ = Models.junction_current ~is:m.Models.q_is ~nvt vbe in
            let irt, _ = Models.junction_current ~is:m.Models.q_is ~nvt vbc in
            let ic = ift -. irt -. (irt /. m.Models.q_br) in
            let ib = (ift /. m.Models.q_bf) +. (irt /. m.Models.q_br) in
            { q_name = name; vbe; vce = vof x c -. vof x e; ic; ib } :: acc
        | SRes _ | SCap _ | SDiode _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> acc)
      [] sim.sdevs
  in
  List.rev rev
