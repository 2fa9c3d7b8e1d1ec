(* Per-domain progress cells.

   A long run (defect campaign, Monte-Carlo sweep) advances on worker
   domains; the observatory wants to see that movement while it
   happens.  Each domain owns one cell of atomic counters — variants
   started / done / failed, accepted solver steps — plus the label of
   the item it is currently chewing on.  Owners bump their own cell
   (uncontended atomics, no lock) at variant boundaries, where the
   variant's step count is already known; a sampler on any other
   domain reads all cells at once.  Disabled, every hook is one
   atomic load and a branch. *)

type cell = {
  started : int Atomic.t;
  done_ : int Atomic.t;
  failed : int Atomic.t;
  steps : int Atomic.t;
  mutable label : string;
      (* owner-written, sampler-read without a lock: a racy read
         observes some previously stored (immutable) string, which is
         exactly what a progress display wants *)
  domain : int;
}

let registry : cell list ref = ref []

let registry_mutex = Mutex.create ()

let cell_key =
  Domain.DLS.new_key (fun () ->
      let c =
        {
          started = Atomic.make 0;
          done_ = Atomic.make 0;
          failed = Atomic.make 0;
          steps = Atomic.make 0;
          label = "";
          domain = (Domain.self () :> int);
        }
      in
      Mutex.lock registry_mutex;
      registry := c :: !registry;
      Mutex.unlock registry_mutex;
      c)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled v = Atomic.set enabled_flag v

(* ------------------------------------------------------------------ *)
(* Recording hooks (owner domain only) *)

let variant_start label =
  if Atomic.get enabled_flag then begin
    let c = Domain.DLS.get cell_key in
    c.label <- label;
    Atomic.incr c.started
  end

let variant_finish ~failed ~steps =
  if Atomic.get enabled_flag then begin
    let c = Domain.DLS.get cell_key in
    Atomic.incr (if failed then c.failed else c.done_);
    ignore (Atomic.fetch_and_add c.steps steps)
  end

(* ------------------------------------------------------------------ *)
(* Sampling *)

type sample = {
  s_domain : int;
  s_started : int;
  s_done : int;
  s_failed : int;
  s_steps : int;
  s_label : string;
}

let sample () =
  Mutex.lock registry_mutex;
  let cells = !registry in
  Mutex.unlock registry_mutex;
  let rows =
    List.map
      (fun c ->
        {
          s_domain = c.domain;
          s_started = Atomic.get c.started;
          s_done = Atomic.get c.done_;
          s_failed = Atomic.get c.failed;
          s_steps = Atomic.get c.steps;
          s_label = c.label;
        })
      cells
  in
  List.sort (fun a b -> compare a.s_domain b.s_domain) rows

(* Zeroing is only safe from the submitting domain while no worker is
   recording — the same quiescence every {!Trace.drain} site already
   has (before a run starts, after the pool barrier). *)
let reset () =
  Mutex.lock registry_mutex;
  let cells = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun c ->
      Atomic.set c.started 0;
      Atomic.set c.done_ 0;
      Atomic.set c.failed 0;
      Atomic.set c.steps 0;
      c.label <- "")
    cells
