(* Optional per-simulation solver introspection.

   One recorder per [Engine.sim] (attached with
   [Engine.set_introspect]), so batched lanes tag their records per
   lane for free — each lane owns its sim, hence its recorder.  Every
   hot-path entry point takes a [t option] and performs exactly one
   match when disabled, the same contract as
   {!Cml_telemetry.Progress.note_step}: the engine stores the option
   once and passes it through, so a disabled simulation pays one load
   and one branch per hook, nothing else.  All O(n) work (delta-norm
   scans, LTE blame scans) happens strictly inside the [Some] arm;
   [note_lte] takes the recorder itself, its caller having matched.

   The recorder only ever *reads* solver state: attaching one must
   not perturb a single bit of the waveform (qcheck-enforced in
   test_introspect.ml).  In particular the LTE accept/reject decision
   stays with [Transient.lte_ok]; its blame scan [Transient.lte_blame]
   uses the same tolerance and runs only when a recorder is attached.

   Storage is flat Fbuf columns (ints stored as exact floats), read
   back as typed rows by the analysis accessors at post-mortem
   time. *)

module Fbuf = Cml_numerics.Fbuf

(* dt-timeline cause tags *)
let cause_accept = 0
let cause_breakpoint = 1
let cause_guide = 2
let cause_lte = 3
let cause_newton_fail = 4

let cause_name = function
  | 0 -> "accept"
  | 1 -> "breakpoint"
  | 2 -> "guide-rescue"
  | 3 -> "lte-reject"
  | 4 -> "newton-reject"
  | _ -> "unknown"

(* LU stability-fallback reason codes (mirror
   [Sparse_lu.refactor_failure] without depending on its payload) *)
let lu_small_pivot = 0
let lu_unstable_pivot = 1
let lu_pattern = 2

type t = {
  label : string;
  (* one row per Newton iteration that solved a system *)
  nw_time : Fbuf.t;
  nw_iter : Fbuf.t;
  nw_delta : Fbuf.t;  (* max_i |xn_i - x_i| *)
  nw_worst : Fbuf.t;  (* unknown index attaining the max, -1 if none *)
  nw_jerr : Fbuf.t;  (* junction-limiting error after the load *)
  nw_jworst : Fbuf.t;  (* device index of the worst junction, -1 *)
  (* one row per Newton solve that gave up (homotopy retries included) *)
  nf_time : Fbuf.t;
  nf_worst : Fbuf.t;
  nf_delta : Fbuf.t;
  (* one row per LTE rejection: which node forced the step down *)
  lte_time : Fbuf.t;
  lte_h : Fbuf.t;
  lte_worst : Fbuf.t;
  lte_ratio : Fbuf.t;  (* |x - xpred| / tol at the worst node *)
  lte_cascade : Fbuf.t;  (* consecutive rejections ending here *)
  (* step-size-controller timeline *)
  dt_t : Fbuf.t;
  dt_h : Fbuf.t;
  dt_cause : Fbuf.t;
  (* stability fallbacks to full factorization, by reason *)
  mutable lu_small : int;
  mutable lu_unstable : int;
  mutable lu_mismatch : int;
}

let create ?(label = "") () =
  {
    label;
    nw_time = Fbuf.create ();
    nw_iter = Fbuf.create ();
    nw_delta = Fbuf.create ();
    nw_worst = Fbuf.create ();
    nw_jerr = Fbuf.create ();
    nw_jworst = Fbuf.create ();
    nf_time = Fbuf.create ();
    nf_worst = Fbuf.create ();
    nf_delta = Fbuf.create ();
    lte_time = Fbuf.create ();
    lte_h = Fbuf.create ();
    lte_worst = Fbuf.create ();
    lte_ratio = Fbuf.create ();
    lte_cascade = Fbuf.create ();
    dt_t = Fbuf.create ();
    dt_h = Fbuf.create ();
    dt_cause = Fbuf.create ();
    lu_small = 0;
    lu_unstable = 0;
    lu_mismatch = 0;
  }

let label r = r.label

(* ------------------------------------------------------------------ *)
(* Hot-path notes *)

let note_newton ro ~time ~iter ~x ~xn ~junction_error ~junction_worst =
  match ro with
  | None -> ()
  | Some r ->
      let n = Array.length x in
      let worst = ref (-1) and wd = ref 0.0 in
      for i = 0 to n - 1 do
        let d = Float.abs (xn.(i) -. x.(i)) in
        if d > !wd then begin
          wd := d;
          worst := i
        end
      done;
      Fbuf.push r.nw_time time;
      Fbuf.push r.nw_iter (float_of_int iter);
      Fbuf.push r.nw_delta !wd;
      Fbuf.push r.nw_worst (float_of_int !worst);
      Fbuf.push r.nw_jerr junction_error;
      Fbuf.push r.nw_jworst (float_of_int junction_worst)

(* Blame for a failed solve is the worst unknown of its final
   iteration — already recorded, so just copy it forward (when the
   failure produced no iteration row, e.g. an immediately singular
   system, there is nothing to blame: -1). *)
let note_newton_fail ro ~time =
  match ro with
  | None -> ()
  | Some r ->
      let n = Fbuf.length r.nw_time in
      let worst, delta =
        if n > 0 && Fbuf.get r.nw_time (n - 1) = time then
          (Fbuf.get r.nw_worst (n - 1), Fbuf.get r.nw_delta (n - 1))
        else (-1.0, 0.0)
      in
      Fbuf.push r.nf_time time;
      Fbuf.push r.nf_worst worst;
      Fbuf.push r.nf_delta delta

let note_lte r ~time ~h ~worst ~ratio ~cascade =
  Fbuf.push r.lte_time time;
  Fbuf.push r.lte_h h;
  Fbuf.push r.lte_worst (float_of_int worst);
  Fbuf.push r.lte_ratio ratio;
  Fbuf.push r.lte_cascade (float_of_int cascade)

let note_dt ro ~t ~h ~cause =
  match ro with
  | None -> ()
  | Some r ->
      Fbuf.push r.dt_t t;
      Fbuf.push r.dt_h h;
      Fbuf.push r.dt_cause (float_of_int cause)

let note_lu_fallback ro ~reason =
  match ro with
  | None -> ()
  | Some r ->
      if reason = lu_small_pivot then r.lu_small <- r.lu_small + 1
      else if reason = lu_unstable_pivot then r.lu_unstable <- r.lu_unstable + 1
      else r.lu_mismatch <- r.lu_mismatch + 1

(* ------------------------------------------------------------------ *)
(* Analysis accessors (post-mortem time; allocation is fine here) *)

type newton_row = {
  nr_time : float;
  nr_iter : int;
  nr_delta : float;
  nr_worst : int;
  nr_jerr : float;
  nr_jworst : int;
}

let newton_rows r =
  List.init (Fbuf.length r.nw_time) (fun i ->
      {
        nr_time = Fbuf.get r.nw_time i;
        nr_iter = int_of_float (Fbuf.get r.nw_iter i);
        nr_delta = Fbuf.get r.nw_delta i;
        nr_worst = int_of_float (Fbuf.get r.nw_worst i);
        nr_jerr = Fbuf.get r.nw_jerr i;
        nr_jworst = int_of_float (Fbuf.get r.nw_jworst i);
      })

type fail_row = { fr_time : float; fr_worst : int; fr_delta : float }

let fail_rows r =
  List.init (Fbuf.length r.nf_time) (fun i ->
      {
        fr_time = Fbuf.get r.nf_time i;
        fr_worst = int_of_float (Fbuf.get r.nf_worst i);
        fr_delta = Fbuf.get r.nf_delta i;
      })

type lte_row = {
  lr_time : float;
  lr_h : float;
  lr_worst : int;
  lr_ratio : float;
  lr_cascade : int;
}

let lte_rows r =
  List.init (Fbuf.length r.lte_time) (fun i ->
      {
        lr_time = Fbuf.get r.lte_time i;
        lr_h = Fbuf.get r.lte_h i;
        lr_worst = int_of_float (Fbuf.get r.lte_worst i);
        lr_ratio = Fbuf.get r.lte_ratio i;
        lr_cascade = int_of_float (Fbuf.get r.lte_cascade i);
      })

type dt_row = { dr_t : float; dr_h : float; dr_cause : int }

let dt_rows r =
  List.init (Fbuf.length r.dt_t) (fun i ->
      {
        dr_t = Fbuf.get r.dt_t i;
        dr_h = Fbuf.get r.dt_h i;
        dr_cause = int_of_float (Fbuf.get r.dt_cause i);
      })

let lu_fallbacks r = (r.lu_small, r.lu_unstable, r.lu_mismatch)

let newton_failures r = Fbuf.length r.nf_time
