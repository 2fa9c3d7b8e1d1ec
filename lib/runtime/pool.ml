(* Fixed-size Domain worker pool for embarrassingly parallel
   simulation batches (defect campaigns, Monte-Carlo sampling, fault
   simulation, characterisation sweeps).

   Design constraints, in order:
   - deterministic results: task [i] always produces slot [i] of the
     output, whatever domain ran it, so parallel and sequential runs
     are byte-identical;
   - a sequential fallback at [jobs = 1] that is exactly [Array.map];
   - exceptions raised by a task are captured and re-raised in the
     caller (the lowest-index failure wins deterministically);
   - the pool is created once and reused: domains are expensive
     relative to small tasks and the number of live domains in an
     OCaml 5 process is bounded. *)

let env_var = "CML_DFT_JOBS"

(* 0 = no override; set from the command line (--jobs). *)
let override = Atomic.make 0

let set_default_jobs n =
  if n < 0 then
    invalid_arg "Pool.set_default_jobs: jobs must be >= 1, or 0 for auto (one per core)";
  Atomic.set override (if n = 0 then Domain.recommended_domain_count () else n)

let env_jobs () =
  match Sys.getenv_opt env_var with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None -> None)

let default_jobs () =
  let o = Atomic.get override in
  if o >= 1 then o
  else
    match env_jobs () with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count () - 1)

(* ------------------------------------------------------------------ *)
(* Per-domain busy/idle accounting.

   Every chunk a domain claims is timed around its execution, into a
   cell the domain owns (domain-local storage, same registration
   pattern as {!Cml_telemetry.Trace}): busy nanoseconds, items
   executed, and the longest stall — the widest gap between two
   consecutive chunk executions within one job, which is the direct
   measurement of "was this domain idle while the batch still had
   work" (tail imbalance under contiguous chunking).  Owner domains
   write plain mutable fields; readers sample at quiescent points
   (after the pool barrier), so no lock guards the counters. *)

type dstat = {
  ds_domain : int;
  mutable ds_busy_ns : int64;
  mutable ds_items : int;
  mutable ds_longest_stall_ns : int64;
  mutable ds_last_end_ns : int64;
  mutable ds_job_gen : int;  (* last job this domain accounted under *)
}

let dstat_registry : dstat list ref = ref []

let dstat_mutex = Mutex.create ()

let dstat_key =
  Domain.DLS.new_key (fun () ->
      let c =
        {
          ds_domain = (Domain.self () :> int);
          ds_busy_ns = 0L;
          ds_items = 0;
          ds_longest_stall_ns = 0L;
          ds_last_end_ns = 0L;
          ds_job_gen = 0;
        }
      in
      Mutex.lock dstat_mutex;
      dstat_registry := c :: !dstat_registry;
      Mutex.unlock dstat_mutex;
      c)

(* job epoch, for stall attribution: a domain's first chunk of a job
   measures its stall from the job's submission instant, later chunks
   from the end of the domain's previous chunk *)
let job_gen = Atomic.make 0

let job_start_ns = Atomic.make 0L

let now_ns () = Cml_telemetry.Clock.now_ns ()

(* one tick per oversubscribed batch (jobs > cores), so the condition
   shows up in manifests and the watch view, not just as a one-shot
   stderr warning *)
let m_oversubscribed = Cml_telemetry.Metrics.counter "pool.oversubscribed"

let account_chunk cell ~t0 ~t1 ~items ~gen ~job_start =
  let stall_from =
    if cell.ds_job_gen <> gen then begin
      cell.ds_job_gen <- gen;
      job_start
    end
    else cell.ds_last_end_ns
  in
  let stall = Int64.sub t0 stall_from in
  if stall > cell.ds_longest_stall_ns then cell.ds_longest_stall_ns <- stall;
  cell.ds_busy_ns <- Int64.add cell.ds_busy_ns (Int64.sub t1 t0);
  cell.ds_items <- cell.ds_items + items;
  cell.ds_last_end_ns <- t1

(* sequential fallbacks still account busy time and items (as one
   chunk, no stall) so a jobs=1 run reports a utilization row too *)
let account_sequential ~items f =
  let cell = Domain.DLS.get dstat_key in
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  cell.ds_busy_ns <- Int64.add cell.ds_busy_ns (Int64.sub t1 t0);
  cell.ds_items <- cell.ds_items + items;
  cell.ds_last_end_ns <- t1;
  r

type domain_stats = { busy_ns : int64; items : int; longest_stall_ns : int64 }

let utilization () =
  Mutex.lock dstat_mutex;
  let cells = !dstat_registry in
  Mutex.unlock dstat_mutex;
  List.sort compare
    (List.map
       (fun c ->
         ( c.ds_domain,
           { busy_ns = c.ds_busy_ns; items = c.ds_items; longest_stall_ns = c.ds_longest_stall_ns }
         ))
       cells)

let utilization_since before =
  List.filter_map
    (fun (dom, (a : domain_stats)) ->
      let b =
        match List.assoc_opt dom before with
        | Some b -> b
        | None -> { busy_ns = 0L; items = 0; longest_stall_ns = 0L }
      in
      let d =
        {
          busy_ns = Int64.sub a.busy_ns b.busy_ns;
          items = a.items - b.items;
          (* the stall is a cumulative watermark (a max cannot be
             subtracted); {!reset_stall_watermarks} scopes it to a run *)
          longest_stall_ns = a.longest_stall_ns;
        }
      in
      if d.items = 0 && d.busy_ns = 0L then None else Some (dom, d))
    (utilization ())

(* only safe while no other domain is inside a pool batch — i.e. at
   the same quiescent points where [utilization] snapshots are taken *)
let reset_stall_watermarks () =
  Mutex.lock dstat_mutex;
  let cells = !dstat_registry in
  Mutex.unlock dstat_mutex;
  List.iter (fun c -> c.ds_longest_stall_ns <- 0L) cells

(* ------------------------------------------------------------------ *)
(* The pool proper.

   Workers block on [work_ready] until the generation counter moves,
   then race the submitting domain over a shared atomic task index.
   A job carries its own cursor and completion count, so a worker
   that wakes up late simply finds the cursor exhausted.  The
   submitter participates as worker #0, which makes [workers = 0] a
   valid (fully sequential) pool. *)

type job = {
  run : int -> unit;  (* must not raise; see [map] *)
  total : int;
  next : int Atomic.t;
  chunk : int;  (* indices claimed per cursor fetch *)
  active : int;  (* domains allowed to pull tasks, including the caller *)
  mutable unfinished : int;  (* workers yet to acknowledge; under [mutex] *)
}

type t = {
  workers : int;
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable generation : int;
  mutable job : job option;
  mutable stopping : bool;
  mutable domains : unit Domain.t list;
}

let drain job =
  let cell = Domain.DLS.get dstat_key in
  let gen = Atomic.get job_gen in
  let job_start = Atomic.get job_start_ns in
  let rec go () =
    let start = Atomic.fetch_and_add job.next job.chunk in
    if start < job.total then begin
      let stop = min job.total (start + job.chunk) in
      let t0 = now_ns () in
      for i = start to stop - 1 do
        job.run i
      done;
      let t1 = now_ns () in
      account_chunk cell ~t0 ~t1 ~items:(stop - start) ~gen ~job_start;
      go ()
    end
  in
  go ()

let worker t id =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while (not t.stopping) && t.generation = !seen do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stopping then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let job = match t.job with Some j -> j | None -> assert false in
      Mutex.unlock t.mutex;
      (* workers beyond the job's parallelism cap only acknowledge *)
      if id + 1 < job.active then drain job;
      Mutex.lock t.mutex;
      job.unfinished <- job.unfinished - 1;
      if job.unfinished = 0 then Condition.broadcast t.work_done;
      Mutex.unlock t.mutex;
      loop ()
    end
  in
  loop ()

let create ~workers =
  if workers < 0 then invalid_arg "Pool.create: negative worker count";
  let t =
    {
      workers;
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      generation = 0;
      job = None;
      stopping = false;
      domains = [];
    }
  in
  t.domains <- List.init workers (fun id -> Domain.spawn (fun () -> worker t id));
  t

let size t = t.workers

let shutdown t =
  Mutex.lock t.mutex;
  t.stopping <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

(* Run [run 0 .. run (total-1)] across the pool; not re-entrant (one
   job at a time per pool, submitted from a single domain). *)
let run_tasks t ~active ~total run =
  if total > 0 then
    if active <= 1 || t.workers = 0 then
      account_sequential ~items:total (fun () ->
          for i = 0 to total - 1 do
            run i
          done)
    else begin
      (* stamp the job epoch before waking anyone: every domain's
         first-chunk stall is measured from this instant *)
      Atomic.set job_start_ns (now_ns ());
      Atomic.incr job_gen;
      (* coarse claiming: each cursor fetch takes a run of indices, so
         a batch much larger than the domain count (fault simulation,
         Monte-Carlo) touches the shared cursor ~8 times per domain
         instead of once per task, while small batches (a handful of
         transients) still hand out single tasks and keep the tail
         balanced *)
      let chunk = max 1 (total / (active * 8)) in
      let job = { run; total; next = Atomic.make 0; chunk; active; unfinished = t.workers } in
      Mutex.lock t.mutex;
      t.generation <- t.generation + 1;
      t.job <- Some job;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      drain job;
      Mutex.lock t.mutex;
      while job.unfinished > 0 do
        Condition.wait t.work_done t.mutex
      done;
      t.job <- None;
      Mutex.unlock t.mutex
    end

type 'b cell = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

let map t ?jobs f arr =
  let n = Array.length arr in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  (* never run more domains than the machine has cores: oversubscribed
     OCaml 5 domains serialise on every minor-GC stop-the-world sync,
     which turns "--jobs 4" on a 1-core host into a large slowdown
     rather than a wash *)
  let cores = Domain.recommended_domain_count () in
  if jobs > cores then begin
    (* counted per oversubscribed batch (the warning itself is
       one-shot), so manifests record how often the cap was hit *)
    Cml_telemetry.Metrics.incr m_oversubscribed;
    Cml_telemetry.Trace.warn_once ~key:"pool.jobs_exceed_cores"
      (Printf.sprintf
         "%d jobs requested (--jobs / %s) but only %d cores are available; capping active \
          domains at %d"
         jobs env_var cores cores)
  end;
  let active = min (min jobs n) (min (t.workers + 1) cores) in
  if active <= 1 then account_sequential ~items:n (fun () -> Array.map f arr)
  else begin
    if Cml_telemetry.Trace.enabled () then
      Cml_telemetry.Trace.instant ~cat:"pool"
        ~args:[ ("total", Cml_telemetry.Trace.I n); ("active", Cml_telemetry.Trace.I active) ]
        "pool.batch";
    let cells = Array.make n Pending in
    let failed = Atomic.make false in
    let run i =
      (* after a failure, finish nothing new: the batch is doomed *)
      if not (Atomic.get failed) then
        match f arr.(i) with
        | v -> cells.(i) <- Done v
        | exception e ->
            cells.(i) <- Raised (e, Printexc.get_raw_backtrace ());
            Atomic.set failed true
    in
    run_tasks t ~active ~total:n run;
    if Atomic.get failed then
      Array.iter
        (function Raised (e, bt) -> Printexc.raise_with_backtrace e bt | Pending | Done _ -> ())
        cells;
    Array.map (function Done v -> v | Pending | Raised _ -> assert false) cells
  end

(* ------------------------------------------------------------------ *)
(* The shared global pool.

   Sized once, on first parallel use, to the larger of the default
   job count and the first explicit request; later requests for more
   parallelism than the pool holds are capped at its size. *)

let global : t option ref = ref None

let global_mutex = Mutex.create ()

let global_pool ~at_least =
  Mutex.lock global_mutex;
  let p =
    match !global with
    | Some p -> p
    | None ->
        (* capped at cores - 1: extra domains never run concurrently
           anyway (see the [active] cap in [map]) and merely existing
           taxes every minor collection of the working domains — on a
           1-core host, idle workers cost ~40% of sequential runtime *)
        let cores = Domain.recommended_domain_count () in
        let workers =
          min (max (at_least - 1) (max 0 (default_jobs () - 1))) (max 0 (cores - 1))
        in
        let p = create ~workers in
        global := Some p;
        p
  in
  Mutex.unlock global_mutex;
  p

let parallel_map ?jobs f arr =
  let n = Array.length arr in
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if min jobs n <= 1 then account_sequential ~items:n (fun () -> Array.map f arr)
  else map (global_pool ~at_least:jobs) ~jobs f arr

let parallel_list_map ?jobs f l =
  Array.to_list (parallel_map ?jobs f (Array.of_list l))

(* ------------------------------------------------------------------ *)
(* Size-aware slice scheduling.

   Callers that amortise per-slice work (a shared symbolic LU analysis,
   a fault-simulation pattern block) want a contiguous *slice* of the
   input as the unit of pool work, not a single element: one pool task
   per slice also pays the wake-up/handoff cost once per slice, while
   preserving the deterministic element order of [parallel_map].
   Slices are sized to give each active domain about four tasks (tail
   balancing), capped at the caller's [max_batch]. *)

let parallel_map_batches ?jobs ?(max_batch = max_int) f arr =
  if max_batch < 1 then invalid_arg "Pool.parallel_map_batches: max_batch must be >= 1";
  let n = Array.length arr in
  if n = 0 then [||]
  else begin
    let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
    let cores = Domain.recommended_domain_count () in
    let active = max 1 (min (min jobs n) cores) in
    let size =
      let per = (n + (active * 4) - 1) / (active * 4) in
      min max_batch per
    in
    let nslices = (n + size - 1) / size in
    let slices =
      Array.init nslices (fun k ->
          let lo = k * size in
          (lo, min n (lo + size) - lo))
    in
    let run (lo, len) = f (Array.sub arr lo len) in
    let results =
      if nslices = 1 || active <= 1 then
        account_sequential ~items:nslices (fun () -> Array.map run slices)
      else map (global_pool ~at_least:jobs) ~jobs run slices
    in
    Array.iteri
      (fun k r ->
        if Array.length r <> snd slices.(k) then
          invalid_arg "Pool.parallel_map_batches: f changed the slice length")
      results;
    Array.concat (Array.to_list results)
  end
