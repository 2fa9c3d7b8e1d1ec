type options = {
  reltol : float;
  vntol : float;
  abstol : float;
  gmin : float;
  max_iter : int;
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
    bypass = true;
    lte_reltol_factor = 30.0;
    lte_abstol = 1e-4;
  }

exception No_convergence of string

(* Device state the Newton loop writes lives in float-only records,
   which OCaml stores flat: a write into a record that mixes floats
   with other fields boxes the float. *)
type junction = { mutable v_last : float }

(* SPICE3-style bypass caches: the stamps a junction device produced
   at its last full evaluation, plus the (limited) junction voltages
   they were computed at.  When the next load finds every junction of
   the device within a safety-scaled convergence tolerance of the
   cached voltages, the exponentials and their derivatives are skipped
   and the cached stamps are replayed verbatim.  A fresh cache holds
   NaN voltages, which no bypass test accepts. *)
type dcache = {
  mutable d_v : float;  (** limited junction voltage of the cached stamps *)
  mutable d_g : float;
  mutable d_ieq : float;
}

type bcache = {
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

(* capacitor companion state: voltage and current at the last accepted step *)
type cstate = { mutable vprev : float; mutable iprev : float }

(* Factor-reuse (chord) state, float-only like the device state above. *)
type chord = {
  mutable f_geq : float;
      (** geq of the matrix the factor in [lu] was built from; NaN when
          that factor is not usable *)
  mutable f_gshunt : float;  (** ... and its gshunt *)
  mutable step1 : float;  (** max |dx| of this Newton call's last step *)
  mutable step2 : float;  (** ... and of the step before it *)
}

type sdev =
  | SRes of { i : int; j : int; g : float }
  | SCap of { i : int; j : int; c : float; cs : cstate }
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

type sim = {
  opts : options;
  nv : int;  (** node-voltage unknowns *)
  nunk : int;
  sdevs : sdev array;
  branches : (string, int) Hashtbl.t;
  a : Cml_numerics.Sparse.csc;
      (** the Jacobian: pattern built at {!compile}, values re-stamped
          in place by every load *)
  mutable lu : Cml_numerics.Sparse_lu.factor option;
      (** factor of the previous solve, kept for numeric-only
          refactorization while the Jacobian pattern and pivot
          stability allow it *)
  mutable n_symbolic : int;  (** full factorizations performed *)
  mutable n_numeric : int;  (** numeric-only refactorizations *)
  symbolic : Cml_numerics.Sparse_lu.symbolic option Atomic.t;
      (** the layout's symbolic analysis, offered to the first
          factorization; shared by every sim of one layout *)
  slots : int array;
      (** where each matrix stamp lands, in assembly order (the gshunt
          diagonal of every node unknown, then each device's stamps):
          an index into the CSC [values] of [a], or -1 for a ground
          row or column; shared by every sim of one layout *)
  soff : int array;  (** [soff.(di)]: index in [slots] of device [di]'s first stamp *)
  order : Cml_numerics.Sparse_lu.order;
      (** the LU column order of [a]'s pattern, kept by every full
          factorization *)
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
      (** [lu] is the factor of the last load's matrix (false after a
          chord step, which solved with an older one) *)
  mutable rt_matrix_unchanged : bool;  (** last load's matrix = previous load's *)
  mutable rt_system_identical : bool;  (** last load's matrix {e and} RHS = previous load's *)
  mutable rt_geq : float;  (** [Dcop] is encoded as 0.0; a [Tran] geq is always > 0 *)
  mutable rt_gshunt : float;
  mutable rt_time : float;
  mutable rt_srcscale : float;
  mutable rt_trap : bool;
  mutable n_reused_factors : int;
  mutable n_skipped_solves : int;
  (* Factor reuse across matrices (chord steps), see [chord_allowed]. *)
  chord : chord;
  mutable chord_pays : bool;
      (** refactoring the installed symbolic analysis costs more than
          the extra iterations a chord step causes *)
  mutable chord_run : int;  (** chord steps in the current Newton call *)
  mutable n_chord_steps : int;
  seed : float array option;
      (** the netlist's nodeset as a start vector (unset nodes and
          branch currents at 0), tried by [dc_operating_point] before
          the zero-start homotopy *)
  mutable n_seeded : int;  (** DC solves started from [seed] *)
  mutable n_seed_fallbacks : int;  (** ... of which fell back to the homotopy *)
}

type integ = Dcop | Tran of { geq : float; trap : bool }

let node_unknown nd = nd - 1

let voltage x nd = if nd = 0 then 0.0 else x.(nd - 1)

let unknown_count sim = sim.nunk

let node_unknowns sim = sim.nv

let options sim = sim.opts

let branch_unknown sim name =
  match Hashtbl.find_opt sim.branches name with Some i -> i | None -> raise Not_found

let dcache_create () = { d_v = nan; d_g = 0.0; d_ieq = 0.0 }

let bcache_create () =
  {
    b_vbe = nan;
    b_vbc = nan;
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

(* The matrix coordinates device [d] stamps, as raw unknown indices
   (negative for ground), in exactly the order [assemble] stamps them. *)
let stamp_coords d f =
  let conductance i j =
    f i i;
    f j j;
    f i j;
    f j i
  in
  match d with
  | SRes { i; j; _ } | SCap { i; j; _ } -> conductance i j
  | SDiode { a; k; _ } -> conductance a k
  | SBjt { c; b; e; _ } ->
      f c b;
      f c c;
      f c e;
      f b b;
      f b c;
      f b e;
      f e b;
      f e c;
      f e e
  | SVsrc { p; n; br; _ } ->
      f br p;
      f br n;
      f p br;
      f n br
  | SIsrc _ -> ()
  | SVcvs { p; n; cp; cn; br; _ } ->
      f br p;
      f br n;
      f br cp;
      f br cn;
      f p br;
      f n br
  | SVccs { p; n; cp; cn; _ } ->
      f p cp;
      f p cn;
      f n cp;
      f n cn

(* Every matrix stamp of one load, in assembly order: the gshunt
   diagonal of the [nv] node unknowns, then each device's
   [stamp_coords].  Returns each device's first stamp index and the
   stamp count. *)
let stamp_offsets ~nv sdevs =
  let count = ref nv in
  let tick _ _ = incr count in
  let soff =
    Array.map
      (fun d ->
        let first = !count in
        stamp_coords d tick;
        first)
      sdevs
  in
  (soff, !count)

(* The compiled devices of a netlist, in netlist order: the node
   unknown count, the unknown count, the device records and the branch
   unknown of every voltage source and VCVS. *)
let build_devices net =
  let nv = Netlist.node_count net - 1 in
  let sdevs = ref [] in
  let branches = Hashtbl.create 8 in
  let nbranch = ref 0 in
  let u = node_unknown in
  let emit d = sdevs := d :: !sdevs in
  (* an absent (non-positive) capacitance is skipped; the negated test
     keeps a NaN one, which must poison the transient, not vanish *)
  let emit_cap i j c =
    if not (c <= 0.0) then emit (SCap { i; j; c; cs = { vprev = 0.0; iprev = 0.0 } })
  in
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
  (nv, nv + !nbranch, Array.of_list (List.rev !sdevs), branches)

(* The netlist's nodeset as a start vector, [None] without one. *)
let seed_of net ~nunk =
  match Netlist.nodeset net with
  | [] -> None
  | set ->
      let x = Array.make nunk 0.0 in
      List.iter (fun (nd, v) -> x.(node_unknown nd) <- v) set;
      Some x

(* ------------------------------------------------------------------ *)
(* Layouts.  A device's first stamp, each stamp's slot, the CSC
   pattern and the LU column order of that pattern are a pure function
   of the compiled device structure, so one process-wide table of the
   last [layout_bound] structures serves every netlist of a topology.
   Entries hold no values.  The pivot order depends on values, so the
   symbolic analysis an entry carries, published by the first sim of
   the layout that ran a pivot search, is adopted only where a fresh
   search would pick the same pivots ([Sparse_lu.adopt]): races between
   domains, eviction and lookup order change speed, never results. *)

type layout = {
  l_key : int array;
  l_soff : int array;
  l_slots : int array;
  l_pattern : Cml_numerics.Sparse.csc;  (** its [values] are [[||]] *)
  l_order : Cml_numerics.Sparse_lu.order;
  l_symbolic : Cml_numerics.Sparse_lu.symbolic option Atomic.t;  (** first published wins *)
}

(* A device's shape tag and the unknowns its stamps sit on, packed 20
   bits per unknown (ground is 0) into [word] and, for the controlled
   sources, [extra].  A key is [nv; nunk; device count], then every
   device's word, then every extra: equal keys mean equal stamp offsets
   and coordinates.  Exact while the unknowns fit: see [layout_of]. *)
let pack tag x y z = tag lor ((x + 1) lsl 3) lor ((y + 1) lsl 23) lor ((z + 1) lsl 43)

let word = function
  | SRes { i; j; _ } | SCap { i; j; _ } | SDiode { a = i; k = j; _ } -> pack 0 i j (-1)
  | SBjt { c; b; e; _ } -> pack 1 c b e
  | SVsrc { p; n; br; _ } -> pack 2 p n br
  | SIsrc _ -> 3
  | SVcvs { p; n; cp; _ } -> pack 4 p n cp
  | SVccs { p; n; cp; _ } -> pack 5 p n cp

let extra = function
  | SVcvs { cn; br; _ } -> pack 0 cn br (-1)
  | SVccs { cn; _ } -> pack 0 cn (-1) (-1)
  | SRes _ | SCap _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ -> 0

let key_of ~nv ~nunk sdevs =
  Array.concat [ [| nv; nunk; Array.length sdevs |]; Array.map word sdevs; Array.map extra sdevs ]

(* [key = key_of ~nv ~nunk sdevs], without building the right side *)
let key_matches ~nv ~nunk sdevs (key : int array) =
  let nd = Array.length sdevs in
  let rec from di =
    di = nd
    || (key.(3 + di) = word sdevs.(di) && key.(3 + nd + di) = extra sdevs.(di) && from (di + 1))
  in
  Array.length key = 3 + (2 * nd) && key.(0) = nv && key.(1) = nunk && from 0

let layout_bound = 8

(* filled round-robin: the oldest entry makes room for a new one *)
let layouts : layout option array = Array.make layout_bound None
let layouts_next = ref 0
let layouts_lock = Mutex.create ()

(* under [layouts_lock] *)
let find_layout ~nv ~nunk sdevs =
  Array.find_map
    (function Some l when key_matches ~nv ~nunk sdevs l.l_key -> Some l | _ -> None)
    layouts

(* A new layout and the zero values of the matrix it compressed. *)
let build_layout ~nv ~nunk sdevs =
  let soff, count = stamp_offsets ~nv sdevs in
  let trip = Cml_numerics.Sparse.triplet_create ~capacity:count nunk in
  (* each stamp's triplet entry, then its CSC slot; -1 for a ground row
     or column *)
  let slots = Array.make count (-1) and s = ref 0 and entries = ref 0 in
  let add i j =
    if i >= 0 && j >= 0 then begin
      Cml_numerics.Sparse.add trip i j 0.0;
      slots.(!s) <- !entries;
      incr entries
    end;
    incr s
  in
  for i = 0 to nv - 1 do
    add i i
  done;
  Array.iter (fun d -> stamp_coords d add) sdevs;
  let pat = Cml_numerics.Sparse.compress trip in
  let csc_pos = Cml_numerics.Sparse.entry_of_triplet pat in
  Array.iteri (fun s k -> if k >= 0 then slots.(s) <- csc_pos.(k)) slots;
  let a = Cml_numerics.Sparse.csc_of_pattern pat in
  ( {
      l_key = key_of ~nv ~nunk sdevs;
      l_soff = soff;
      l_slots = slots;
      l_pattern = { a with Cml_numerics.Sparse.values = [||] };
      l_order = Cml_numerics.Sparse_lu.column_order a;
      l_symbolic = Atomic.make None;
    },
    a.Cml_numerics.Sparse.values )

(* The layout of compiled devices and zero matrix values of its own.
   A missing layout is built outside the lock; when a racing domain
   stored the same key first, its entry is used, so every sim of one
   structure shares one set of arrays.  A design beyond [pack]'s 20
   bits per unknown is laid out, not kept. *)
let layout_of ~nv ~nunk sdevs =
  let keyed = nunk < 1 lsl 20 in
  let find () = if keyed then find_layout ~nv ~nunk sdevs else None in
  match Mutex.protect layouts_lock find with
  | Some l -> (l, Array.make (Cml_numerics.Sparse.nnz l.l_pattern) 0.0)
  | None ->
      let l, values = build_layout ~nv ~nunk sdevs in
      let stored =
        Mutex.protect layouts_lock (fun () ->
            match find () with
            | Some l' -> l'
            | None ->
                if keyed then begin
                  layouts.(!layouts_next) <- Some l;
                  layouts_next := (!layouts_next + 1) mod layout_bound
                end;
                l)
      in
      (stored, values)

let compile ?(options = default_options) net =
  let nv, nunk, sdevs, branches = build_devices net in
  let l, values = layout_of ~nv ~nunk sdevs in
  {
    opts = options;
    nv;
    nunk;
    sdevs;
    branches;
    a = { l.l_pattern with values };
    lu = None;
    n_symbolic = 0;
    n_numeric = 0;
    symbolic = l.l_symbolic;
    slots = l.l_slots;
    soff = l.l_soff;
    order = l.l_order;
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
    chord = { f_geq = nan; f_gshunt = nan; step1 = infinity; step2 = infinity };
    chord_pays = false;
    chord_run = 0;
    n_chord_steps = 0;
    seed = seed_of net ~nunk;
    n_seeded = 0;
    n_seed_fallbacks = 0;
  }

(* ------------------------------------------------------------------ *)
(* Assembly.

   Every load stamps the same sequence of matrix entries (same devices,
   same order, zero-valued entries included; a bypassed device replays
   exactly the stamps of its full evaluation), so [compile] resolves
   each stamp's destination once ([slots]) and a load only adds values
   into the CSC storage: every matrix entry is the sum of its stamps
   in device order. *)

let[@inline] vof x i = if i < 0 then 0.0 else x.(i)

let[@inline] inject rhs i v = if i >= 0 then rhs.(i) <- rhs.(i) +. v

(* [stamp mat slots s v] adds [v] at the destination of stamp [s] *)
let[@inline] stamp mat slots s v =
  let slot = slots.(s) in
  if slot >= 0 then mat.(slot) <- mat.(slot) +. v

(* the four stamps [stamp_coords] lists for a two-terminal conductance,
   starting at stamp [s] *)
let[@inline] stamp_conductance mat slots s g =
  stamp mat slots s g;
  stamp mat slots (s + 1) g;
  stamp mat slots (s + 2) (-.g);
  stamp mat slots (s + 3) (-.g)

(* ------------------------------------------------------------------ *)
(* pn-junction maths.  It lives here, not in [Models], because the
   dev profile compiles with [-opaque]: a call into another module is
   never inlined, so it boxes its float arguments and result. *)

let limexp_arg = 80.0

let[@inline] limexp x =
  if x <= limexp_arg then exp x else exp limexp_arg *. (1.0 +. x -. limexp_arg)

(* the junction current [is * (e^(v/nvt) - 1)] and its conductance
   at bias [v], both from [e = limexp (v /. nvt)] *)
let[@inline] junction_i ~is e = is *. (e -. 1.0)

let[@inline] junction_g ~is ~nvt v e =
  if v /. nvt <= limexp_arg then is *. e /. nvt else is *. exp limexp_arg /. nvt

let junction_current ~is ~nvt v =
  let e = limexp (v /. nvt) in
  (junction_i ~is e, junction_g ~is ~nvt v e)

let[@inline] vcrit ~is ~nvt = nvt *. log (nvt /. (Float.sqrt 2.0 *. is))

(* Straight port of the classic SPICE3 pnjlim. *)
let[@inline] pnjlim ~vnew ~vold ~nvt ~vcrit =
  if vnew > vcrit && Float.abs (vnew -. vold) > 2.0 *. nvt then begin
    if vold > 0.0 then begin
      let arg = 1.0 +. ((vnew -. vold) /. nvt) in
      if arg > 0.0 then vold +. (nvt *. log arg) else vcrit
    end
    else nvt *. log (vnew /. nvt)
  end
  else vnew

(* [Float.max (Float.abs a) (Float.abs b)], NaN when either is NaN *)
let[@inline] max_mag a b =
  let a = Float.abs a and b = Float.abs b in
  if a >= b || Float.is_nan a then a else b

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
     *. ((opts.reltol *. max_mag vnew vcache) +. opts.vntol)

(* Running max of the junction-limiting error.  The negated [<=] takes
   a NaN error in (any comparison with NaN is false) and a recorded
   NaN is never displaced, so a non-finite junction voltage cannot
   read as settled; on finite errors this is the plain [err >] max. *)
let[@inline] note_junction_error sim err di =
  if not (err <= sim.junction_error || Float.is_nan sim.junction_error) then begin
    sim.junction_error <- err;
    sim.junction_worst <- di
  end

(* The one assembly routine, behind both [load] and [newton_system]:
   zero the matrix and the RHS, then stamp every device.  [bypass]
   enables the device-bypass fast path (off for the AC linearisation,
   which wants the exact Jacobian).  The hot path allocates nothing. *)
let assemble sim ~x ~time ~integ ~srcscale ~gshunt ~bypass =
  let mat = sim.a.Cml_numerics.Sparse.values and slots = sim.slots and soff = sim.soff in
  Array.fill mat 0 (Array.length mat) 0.0;
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
    stamp mat slots i gshunt
  done;
  let sdevs = sim.sdevs in
  for di = 0 to Array.length sdevs - 1 do
    let s = soff.(di) in
    match sdevs.(di) with
    | SRes { g; _ } -> stamp_conductance mat slots s g
    | SCap { i; j; c; cs } ->
        let g = match integ with Dcop -> 0.0 | Tran { geq; _ } -> geq *. c in
        let irhs =
          match integ with
          | Dcop -> 0.0
          | Tran { trap; _ } -> (g *. cs.vprev) +. if trap then cs.iprev else 0.0
        in
        stamp_conductance mat slots s g;
        inject rhs i irhs;
        inject rhs j (-.irhs)
    | SDiode { a; k; m; js; dc } ->
        sim.n_diode_loads <- sim.n_diode_loads + 1;
        let vnew = vof x a -. vof x k in
        if bypass && bypass_close opts vnew dc.d_v then begin
          sim.n_diode_bypassed <- sim.n_diode_bypassed + 1;
          stamp_conductance mat slots s dc.d_g;
          inject rhs a dc.d_ieq;
          inject rhs k (-.dc.d_ieq)
        end
        else begin
          sim.n_full_evals <- sim.n_full_evals + 1;
          let n_nvt = m.Models.d_n *. nvt and is = m.Models.d_is in
          let vlim = pnjlim ~vnew ~vold:js.v_last ~nvt:n_nvt ~vcrit:(vcrit ~is ~nvt:n_nvt) in
          js.v_last <- vlim;
          note_junction_error sim (Float.abs (vnew -. vlim)) di;
          let e = limexp (vlim /. n_nvt) in
          let g = junction_g ~is ~nvt:n_nvt vlim e +. gmin
          and i0 = junction_i ~is e +. (gmin *. vlim) in
          stamp_conductance mat slots s g;
          let ieq = (g *. vlim) -. i0 in
          inject rhs a ieq;
          inject rhs k (-.ieq);
          dc.d_v <- vlim;
          dc.d_g <- g;
          dc.d_ieq <- ieq
        end
    | SBjt { c; b; e; m; jbe; jbc; bc; name = _ } ->
        sim.n_bjt_loads <- sim.n_bjt_loads + 1;
        let vbe_new = vof x b -. vof x e in
        let vbc_new = vof x b -. vof x c in
        if
          bypass
          && bypass_close opts vbe_new bc.b_vbe
          && bypass_close opts vbc_new bc.b_vbc
        then begin
          sim.n_bjt_bypassed <- sim.n_bjt_bypassed + 1;
          stamp mat slots s bc.g_cb;
          stamp mat slots (s + 1) bc.g_cc;
          stamp mat slots (s + 2) bc.g_ce;
          stamp mat slots (s + 3) bc.g_bb;
          stamp mat slots (s + 4) bc.g_bc;
          stamp mat slots (s + 5) bc.g_be;
          stamp mat slots (s + 6) bc.g_eb;
          stamp mat slots (s + 7) bc.g_ec;
          stamp mat slots (s + 8) bc.g_ee;
          inject rhs c bc.i_c;
          inject rhs b bc.i_b;
          inject rhs e bc.i_e
        end
        else begin
          sim.n_full_evals <- sim.n_full_evals + 1;
          let is = m.Models.q_is in
          let vcrit = vcrit ~is ~nvt in
          let vbe =
            let v = pnjlim ~vnew:vbe_new ~vold:jbe.v_last ~nvt ~vcrit in
            jbe.v_last <- v;
            note_junction_error sim (Float.abs (vbe_new -. v)) di;
            v
          in
          let vbc =
            let v = pnjlim ~vnew:vbc_new ~vold:jbc.v_last ~nvt ~vcrit in
            jbc.v_last <- v;
            note_junction_error sim (Float.abs (vbc_new -. v)) di;
            v
          in
          let ef = limexp (vbe /. nvt) and er = limexp (vbc /. nvt) in
          let ift = junction_i ~is ef and gif = junction_g ~is ~nvt vbe ef in
          let irt = junction_i ~is er and gir = junction_g ~is ~nvt vbc er in
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
          stamp mat slots s dic_dvb;
          stamp mat slots (s + 1) dic_dvc;
          stamp mat slots (s + 2) dic_dve;
          stamp mat slots (s + 3) dib_dvb;
          stamp mat slots (s + 4) dib_dvc;
          stamp mat slots (s + 5) dib_dve;
          stamp mat slots (s + 6) die_dvb;
          stamp mat slots (s + 7) die_dvc;
          stamp mat slots (s + 8) die_dve;
          inject rhs c ic_rhs;
          inject rhs b ib_rhs;
          inject rhs e ie_rhs;
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
    | SVsrc { br; w; _ } ->
        stamp mat slots s 1.0;
        stamp mat slots (s + 1) (-1.0);
        stamp mat slots (s + 2) 1.0;
        stamp mat slots (s + 3) (-1.0);
        rhs.(br) <- rhs.(br) +. (srcscale *. Waveform.value w time)
    | SIsrc { p; n; w } ->
        let i = srcscale *. Waveform.value w time in
        inject rhs p (-.i);
        inject rhs n i
    | SVcvs { gain; _ } ->
        stamp mat slots s 1.0;
        stamp mat slots (s + 1) (-1.0);
        stamp mat slots (s + 2) (-.gain);
        stamp mat slots (s + 3) gain;
        stamp mat slots (s + 4) 1.0;
        stamp mat slots (s + 5) (-1.0)
    | SVccs { gm; _ } ->
        stamp mat slots s gm;
        stamp mat slots (s + 1) (-.gm);
        stamp mat slots (s + 2) (-.gm);
        stamp mat slots (s + 3) gm
  done

let load sim ~x ~time ~integ ~srcscale ~gshunt =
  assemble sim ~x ~time ~integ ~srcscale ~gshunt ~bypass:sim.opts.bypass;
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

(* A refactorize that bailed forces a full factorization; attribute
   the fallback to its recorded reason.  Toplevel, not local to
   [solve_linear_into], which would allocate its closure per solve. *)
let note_fallback sim f =
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

(* Factor reuse across matrices.  A chord step keeps the factor [F] of
   an older Jacobian and solves [F d = rhs - A x] for the freshly
   assembled system [A x = rhs]; [x + d] has the Newton root as its
   fixed point, only the convergence rate drops from quadratic to
   linear.  It pays on a system whose numeric refactorization costs
   more than the assembly and solve of the extra iterations it causes
   ([install_factor] weighs the two), and is taken only while:
   - the factor was built at the current load's geq and gshunt, in a
     transient (the DC homotopy stays exact Newton);
   - the iteration contracts: the last step's max |dx| is at most
     [chord_contraction] (rho) times the step before it.  An iterate
     accepted at a step below the Newton tolerance then lies within
     rho / (1 - rho) = 1 tolerance of the root;
   - fewer than [chord_max_run] chord steps ran in this Newton call;
   - device bypass is on: [bypass = false] asks for the exact
     linearisation at every iterate. *)
let chord_contraction = 0.5

let chord_max_run = 5

let chord_allowed sim =
  let c = sim.chord in
  sim.chord_pays && sim.opts.bypass && sim.rt_geq > 0.0 && c.f_geq = sim.rt_geq
  && c.f_gshunt = sim.rt_gshunt
  && sim.chord_run < chord_max_run
  && c.step1 <= chord_contraction *. c.step2

(* Install [f], a new symbolic analysis: count it, and price its
   refactorization against one more iteration's assembly (the stamps)
   and solve. *)
let install_factor sim f =
  sim.lu <- Some f;
  sim.n_symbolic <- sim.n_symbolic + 1;
  let nl, nu = Cml_numerics.Sparse_lu.lu_nnz f in
  sim.chord_pays <-
    Cml_numerics.Sparse_lu.refactor_work f > 2 * (Array.length sim.slots + nl + nu);
  f

(* Process-wide tally of first factorizations, by outcome.  Which sim
   publishes a layout's analysis, and so these counts, depends on
   scheduling: they go to [symbolic_adoptions] and the trace, never to
   the metrics registry. *)
let adopted = Atomic.make 0
let refused = Atomic.make 0
let unoffered = Atomic.make 0

let note_first_factor tally outcome =
  Atomic.incr tally;
  if Cml_telemetry.Trace.enabled () then
    Cml_telemetry.Trace.instant ~cat:"solver" "lu.first_factor"
      ~args:[ ("outcome", Cml_telemetry.Trace.S outcome) ]

(* A sim's first factorization, in the layout's column order: the
   layout's symbolic analysis when a fresh pivot search would pick the
   same pivots on these values (so the factor is bit-identical to the
   search's), else the search, whose analysis the layout keeps when it
   has none yet. *)
let first_factor sim a =
  match Atomic.get sim.symbolic with
  | Some s -> (
      match Cml_numerics.Sparse_lu.adopt s a with
      | Some f ->
          note_first_factor adopted "adopted";
          f
      | None ->
          let f = Cml_numerics.Sparse_lu.factorize_in sim.order a in
          note_first_factor refused "refused";
          f)
  | None ->
      let f = Cml_numerics.Sparse_lu.factorize_in sim.order a in
      ignore (Atomic.compare_and_set sim.symbolic None (Some (Cml_numerics.Sparse_lu.symbolic f)));
      note_first_factor unoffered "unoffered";
      f

type adoption_tally = { adopted : int; refused : int; unoffered : int }

let symbolic_adoptions () =
  { adopted = Atomic.get adopted; refused = Atomic.get refused; unoffered = Atomic.get unoffered }

(* [out] receives the next iterate from the current one [x]. *)
let solve_linear_into sim x out =
  match sim.lu with
  | Some f when sim.rt_matrix_unchanged && sim.rt_have_factor ->
      sim.n_reused_factors <- sim.n_reused_factors + 1;
      Cml_numerics.Sparse_lu.solve_into f sim.rhs out
  | Some f when chord_allowed sim ->
      sim.n_chord_steps <- sim.n_chord_steps + 1;
      sim.chord_run <- sim.chord_run + 1;
      (* the factor is no longer the last load's *)
      sim.rt_have_factor <- false;
      Cml_numerics.Sparse_lu.solve_residual_into f sim.a x sim.rhs out;
      for i = 0 to sim.nunk - 1 do
        out.(i) <- x.(i) +. out.(i)
      done
  | lu ->
      sim.rt_have_factor <- false;
      sim.chord.f_geq <- nan;
      let a = sim.a in
      (* the pattern of an MNA Jacobian is fixed across Newton
         iterations and timesteps, so the symbolic work (DFS reach,
         pivot order, fill pattern, buffer allocation) is done once and
         only the numeric elimination repeats; a degraded pivot falls
         back to a full factorization with a fresh pivot order in the
         kept column order, which depends on the pattern only *)
      let f =
        match lu with
        | Some f when Cml_numerics.Sparse_lu.refactorize f a ->
            sim.n_numeric <- sim.n_numeric + 1;
            f
        | Some f ->
            note_fallback sim f;
            install_factor sim (Cml_numerics.Sparse_lu.repivot f a)
        | None -> install_factor sim (first_factor sim a)
      in
      sim.rt_have_factor <- true;
      sim.chord.f_geq <- sim.rt_geq;
      sim.chord.f_gshunt <- sim.rt_gshunt;
      Cml_numerics.Sparse_lu.solve_into f sim.rhs out

type solver_stats = {
  symbolic_factorizations : int;
  numeric_refactorizations : int;
  newton_iters : int;
  device_loads : int;
  bypassed_loads : int;
  diode_loads : int;
  diode_bypassed : int;
  bjt_loads : int;
  bjt_bypassed : int;
  reused_factorizations : int;
  skipped_solves : int;
  chord_steps : int;
  seeded_starts : int;
  seed_fallbacks : int;
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
  let lu = sim.lu in
  (* run-boundary call: the O(nnz) health scan is off the solve path
     by construction *)
  let health = Option.map (fun f -> Cml_numerics.Sparse_lu.health f sim.a) lu in
  {
    symbolic_factorizations = sim.n_symbolic;
    numeric_refactorizations = sim.n_numeric;
    newton_iters = sim.n_newton_iters;
    device_loads = sim.n_diode_loads + sim.n_bjt_loads;
    bypassed_loads = sim.n_diode_bypassed + sim.n_bjt_bypassed;
    diode_loads = sim.n_diode_loads;
    diode_bypassed = sim.n_diode_bypassed;
    bjt_loads = sim.n_bjt_loads;
    bjt_bypassed = sim.n_bjt_bypassed;
    reused_factorizations = sim.n_reused_factors;
    skipped_solves = sim.n_skipped_solves;
    chord_steps = sim.n_chord_steps;
    seeded_starts = sim.n_seeded;
    seed_fallbacks = sim.n_seed_fallbacks;
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
    newton_iters = 0;
    device_loads = 0;
    bypassed_loads = 0;
    diode_loads = 0;
    diode_bypassed = 0;
    bjt_loads = 0;
    bjt_bypassed = 0;
    reused_factorizations = 0;
    skipped_solves = 0;
    chord_steps = 0;
    seeded_starts = 0;
    seed_fallbacks = 0;
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

let jacobian sim = sim.a

let lu_fill sim = Option.map Cml_numerics.Sparse_lu.lu_nnz sim.lu

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
let m_chord = M.counter "solver.chord_steps"
let m_lu_fill = M.high_water "solver.lu_fill_nnz"
let m_lu_fill_ratio = M.high_water "solver.lu_fill_ratio"
let m_ordering_amd = M.counter "solver.ordering.amd"
let m_ordering_natural = M.counter "solver.ordering.natural"
let m_fb_small = M.counter "solver.fallback.small_pivot"
let m_fb_unstable = M.counter "solver.fallback.unstable_pivot"
let m_fb_pattern = M.counter "solver.fallback.pattern"
let m_pivot_growth = M.high_water "solver.lu_pivot_growth"
let m_condition = M.high_water "solver.lu_condition"
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
  M.add m_chord (now.chord_steps - since.chord_steps);
  M.add m_diode_loads (now.diode_loads - since.diode_loads);
  M.add m_diode_bypassed (now.diode_bypassed - since.diode_bypassed);
  M.add m_bjt_loads (now.bjt_loads - since.bjt_loads);
  M.add m_bjt_bypassed (now.bjt_bypassed - since.bjt_bypassed);
  M.add m_fb_small (now.fallback_small_pivot - since.fallback_small_pivot);
  M.add m_fb_unstable (now.fallback_unstable_pivot - since.fallback_unstable_pivot);
  M.add m_fb_pattern (now.fallback_pattern - since.fallback_pattern);
  if now.lu_nnz_factors > 0 then begin
    (* high-water gauges: a run reads its worst factor, whatever order
       its domains publish in *)
    M.set m_lu_fill (float_of_int now.lu_nnz_factors);
    M.set m_lu_fill_ratio now.lu_fill_ratio;
    M.set m_pivot_growth now.lu_pivot_growth;
    M.set m_condition now.lu_condition;
    (* count symbolic analyses by the ordering they ended up with, so
       a metrics snapshot shows which path large designs actually take *)
    let fresh = now.symbolic_factorizations - since.symbolic_factorizations in
    if fresh > 0 then
      M.add (if now.lu_ordering = "amd" then m_ordering_amd else m_ordering_natural) fresh
  end

let converged sim x x' =
  let ok = ref true in
  for i = 0 to sim.nunk - 1 do
    let tol =
      if i < sim.nv then sim.opts.vntol +. (sim.opts.reltol *. max_mag x.(i) x'.(i))
      else sim.opts.abstol +. (sim.opts.reltol *. max_mag x.(i) x'.(i))
    in
    (* negated [<=]: a NaN delta or tolerance compares false, so a NaN
       iterate rejects instead of slipping through; an infinite iterate
       makes its own tolerance infinite, hence the explicit finiteness
       test (the delta is finite only when both iterates are) *)
    let d = Float.abs (x'.(i) -. x.(i)) in
    if not (Float.is_finite d && d <= tol) then ok := false
  done;
  !ok

(* per-step device loops are [for] loops: an [Array.iter] closure
   would be allocated on every call *)
let set_junction_states sim x =
  for di = 0 to Array.length sim.sdevs - 1 do
    match sim.sdevs.(di) with
    | SDiode { a; k; js; _ } -> js.v_last <- vof x a -. vof x k
    | SBjt { c; b; e; jbe; jbc; _ } ->
        jbe.v_last <- vof x b -. vof x e;
        jbc.v_last <- vof x b -. vof x c
    | SRes _ | SCap _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ()
  done

(* Shift this step's max |xn - x| into the chord contraction guard; a
   NaN step sticks, and stops the chord. *)
let note_step c ~n x xn =
  let d = ref 0.0 in
  for i = 0 to n - 1 do
    let a = Float.abs (xn.(i) -. x.(i)) in
    if a > !d || Float.is_nan a then d := a
  done;
  c.step2 <- c.step1;
  c.step1 <- !d

(* The iterate loop works entirely in the per-sim workspace ([ws_x],
   [ws_xnew], the matrix and its LU factor) and allocates nothing
   (a toplevel function, so not even a closure per solve); only the
   converged solution is copied out once on success. *)
let rec iterate sim ~time ~integ ~srcscale ~gshunt iter =
  let x = sim.ws_x and xn = sim.ws_xnew in
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
       with the unskipped path.  A non-finite [x] (an infinite
       junction voltage passes the bypass test) would be solved back
       forever and never pass [converged]: give up at once.  After a
       chord step [x] did not solve the previous system exactly (the
       factor is not the last load's), so the skip does not apply. *)
    if iter > 0 && sim.rt_system_identical && sim.rt_have_factor then begin
      sim.n_skipped_solves <- sim.n_skipped_solves + 1;
      if converged sim x x then Some (Cml_numerics.Vec.copy x, iter) else None
    end
    else
      match solve_linear_into sim x xn with
      | exception Cml_numerics.Sparse_lu.Singular _ -> None
      | () ->
          if sim.chord_pays then note_step sim.chord ~n:sim.nunk x xn;
          (match sim.introspect with
          | None -> ()
          | Some _ as ro ->
              Introspect.note_newton ro ~time ~iter ~x ~xn ~junction_error:sim.junction_error
                ~junction_worst:sim.junction_worst);
          let junctions_settled = sim.junction_error <= sim.opts.vntol +. (sim.opts.reltol *. 1.0) in
          if iter > 0 && junctions_settled && converged sim x xn then
            Some (Cml_numerics.Vec.copy xn, iter)
          else begin
            Array.blit xn 0 x 0 sim.nunk;
            iterate sim ~time ~integ ~srcscale ~gshunt (iter + 1)
          end
  end

let newton sim ~time ~integ ?(srcscale = 1.0) ?(gshunt = 0.0) x0 =
  (* token span, not [with_span]: this is the inner hot path, and the
     token API keeps the disabled cost to one atomic load + branch
     with no closure or argument allocation *)
  let tok = Cml_telemetry.Trace.start () in
  set_junction_states sim x0;
  Array.blit x0 0 sim.ws_x 0 sim.nunk;
  sim.chord_run <- 0;
  sim.chord.step1 <- infinity;
  sim.chord.step2 <- infinity;
  let result = iterate sim ~time ~integ ~srcscale ~gshunt 0 in
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

(* Plain Newton from the nodeset, when the netlist has one; [None]
   sends the caller to the zero-start homotopy. *)
let seeded sim ~time =
  match sim.seed with
  | None -> None
  | Some x0 -> (
      sim.n_seeded <- sim.n_seeded + 1;
      match newton sim ~time ~integ:Dcop x0 with
      | Some (x, _) -> Some x
      | None ->
          sim.n_seed_fallbacks <- sim.n_seed_fallbacks + 1;
          None)

let dc_operating_point ?(time = 0.0) sim =
  Cml_telemetry.Trace.with_span ~cat:"sim" "dc" (fun () ->
      match seeded sim ~time with
      | Some x -> x
      | None -> (
          match dc_homotopy sim ~time (zeros sim) with
          | Some x -> x
          | None -> raise (No_convergence "dc operating point")))

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
      | SCap { i; j; cs; _ } ->
          cs.vprev <- vof x i -. vof x j;
          cs.iprev <- 0.0
      | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ())
    sim.sdevs

let update_capacitor_states sim x ~h ~trap =
  for di = 0 to Array.length sim.sdevs - 1 do
    match sim.sdevs.(di) with
    | SCap { i; j; c; cs } ->
        let v = vof x i -. vof x j in
        let i_new =
          if trap then (2.0 *. c /. h *. (v -. cs.vprev)) -. cs.iprev
          else c /. h *. (v -. cs.vprev)
        in
        cs.vprev <- v;
        cs.iprev <- i_new
    | SRes _ | SDiode _ | SBjt _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> ()
  done

let newton_system sim x =
  set_junction_states sim x;
  (* this assembly full-evaluates every junction into the matrix: the
     factor and the previous-load fingerprint are both stale now.
     Bypass is off: G must be the exact linearisation at [x], not a
     cached one. *)
  sim.rt_loaded <- false;
  sim.rt_have_factor <- false;
  assemble sim ~x ~time:0.0 ~integ:Dcop ~srcscale:1.0 ~gshunt:0.0 ~bypass:false;
  (* the nonzero entries, column-major with rows ascending (listed in
     reverse) *)
  let g_entries =
    let a = sim.a in
    let acc = ref [] in
    for j = 0 to sim.nunk - 1 do
      for p = a.Cml_numerics.Sparse.colptr.(j) to a.Cml_numerics.Sparse.colptr.(j + 1) - 1 do
        let v = a.Cml_numerics.Sparse.values.(p) in
        if v <> 0.0 then acc := (a.Cml_numerics.Sparse.rowind.(p), j, v) :: !acc
      done
    done;
    !acc
  in
  (g_entries, Array.copy sim.rhs)

let ac_system sim x =
  let g_entries, _ = newton_system sim x in
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
            let ift, _ = junction_current ~is:m.Models.q_is ~nvt vbe in
            let irt, _ = junction_current ~is:m.Models.q_is ~nvt vbc in
            let ic = ift -. irt -. (irt /. m.Models.q_br) in
            let ib = (ift /. m.Models.q_bf) +. (irt /. m.Models.q_br) in
            { q_name = name; vbe; vce = vof x c -. vof x e; ic; ib } :: acc
        | SRes _ | SCap _ | SDiode _ | SVsrc _ | SIsrc _ | SVcvs _ | SVccs _ -> acc)
      [] sim.sdevs
  in
  List.rev rev
