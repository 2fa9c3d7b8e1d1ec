(* Span/event tracer.

   Design constraints, in order:
   - the disabled cost on the simulation hot path is one atomic load
     and a branch: {!start} returns a negative token without touching
     the clock, {!finish} sees it and returns, and neither allocates;
   - recording is multi-domain safe without a lock on the record
     path: every domain appends to its own buffer (domain-local
     storage), and buffers are only merged by {!drain} from the
     submitting domain once the worker pool is quiescent — exactly
     the barrier {!Cml_runtime.Pool.parallel_map} already provides;
   - drained events are globally ordered by (timestamp, domain id),
     so two drains of the same single-domain workload produce
     identical streams and a Perfetto load shows one time axis. *)

type arg = S of string | F of float | I of int

type phase = Complete of int64 (* duration ns *) | Instant

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : int64;  (* ns since Clock.epoch *)
  tid : int;  (* domain id *)
  args : (string * arg) list;
}

(* ------------------------------------------------------------------ *)
(* Per-domain buffers.

   Each domain owns one growable buffer, created lazily through DLS
   and registered under a global mutex.  The owning domain appends
   with plain writes; [drain] snapshots and clears every buffer.  A
   drain is only safe when no other domain is recording, which holds
   at every drain site (after a parallel batch, or at command exit);
   the registry mutex protects the registry list itself, not the
   event slots. *)

type buf = { mutable evs : event list }

let registry : buf list ref = ref []

let registry_mutex = Mutex.create ()

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b = { evs = [] } in
      Mutex.lock registry_mutex;
      registry := b :: !registry;
      Mutex.unlock registry_mutex;
      b)

let enabled_flag = Atomic.make false

let enabled () = Atomic.get enabled_flag

let set_enabled v = Atomic.set enabled_flag v

let record ev =
  let b = Domain.DLS.get buf_key in
  b.evs <- ev :: b.evs

(* ------------------------------------------------------------------ *)
(* Recording API *)

let disabled_token = -1L

let[@inline] start () = if Atomic.get enabled_flag then Clock.since_epoch_ns () else disabled_token

let finish ?(cat = "sim") ?(args = []) name token =
  if token >= 0L then begin
    let now = Clock.since_epoch_ns () in
    record
      {
        name;
        cat;
        ph = Complete (Int64.max 0L (Int64.sub now token));
        ts = token;
        tid = (Domain.self () :> int);
        args;
      }
  end

let with_span ?cat ?args name f =
  let token = start () in
  match f () with
  | v ->
      finish ?cat ?args name token;
      v
  | exception e ->
      finish ?cat ?args name token;
      raise e

let instant ?(cat = "sim") ?(args = []) name =
  if Atomic.get enabled_flag then
    record
      {
        name;
        cat;
        ph = Instant;
        ts = Clock.since_epoch_ns ();
        tid = (Domain.self () :> int);
        args;
      }

(* One-shot warnings: always printed to stderr (the user asked for
   the condition to stop being silent), recorded as an instant event
   when tracing is on.  Keyed so a warning fires once per process,
   however many parallel batches trip it. *)

let warned : (string, unit) Hashtbl.t = Hashtbl.create 4

let warned_mutex = Mutex.create ()

let warn_once ~key message =
  Mutex.lock warned_mutex;
  let first = not (Hashtbl.mem warned key) in
  if first then Hashtbl.replace warned key ();
  Mutex.unlock warned_mutex;
  if first then begin
    Printf.eprintf "warning: %s\n%!" message;
    (* mirror onto the run-event stream (if one is installed) so the
       condition is visible to `cmldft watch`, not just on a tty *)
    Events.warning ~key message;
    if Atomic.get enabled_flag then
      record
        {
          name = key;
          cat = "warn";
          ph = Instant;
          ts = Clock.since_epoch_ns ();
          tid = (Domain.self () :> int);
          args = [ ("message", S message) ];
        }
  end

(* ------------------------------------------------------------------ *)
(* Draining and sinks *)

let compare_events a b =
  let c = Int64.compare a.ts b.ts in
  if c <> 0 then c
  else
    let c = compare a.tid b.tid in
    if c <> 0 then c else compare a.name b.name

let collect ~clear =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  let all =
    List.fold_left
      (fun acc b ->
        let evs = b.evs in
        if clear then b.evs <- [];
        List.rev_append evs acc)
      [] bufs
  in
  List.sort compare_events all

let drain () = collect ~clear:true

let peek () = collect ~clear:false

let arg_json = function S s -> Json.Str s | F f -> Json.Num f | I i -> Json.Num (float_of_int i)

let args_json args = Json.Obj (List.map (fun (k, v) -> (k, arg_json v)) args)

(* Chrome trace format: complete ("X") and instant ("i") events with
   microsecond timestamps, one pid, the domain id as tid.  The object
   form ({"traceEvents": [...]}) is what chrome://tracing and
   Perfetto both accept. *)
let chrome_event ev =
  let base =
    [
      ("name", Json.Str ev.name);
      ("cat", Json.Str ev.cat);
      ("pid", Json.Num 1.0);
      ("tid", Json.Num (float_of_int ev.tid));
      ("ts", Json.Num (Clock.ns_to_us ev.ts));
    ]
  in
  let phase =
    match ev.ph with
    | Complete dur -> [ ("ph", Json.Str "X"); ("dur", Json.Num (Clock.ns_to_us dur)) ]
    | Instant -> [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
  in
  let args = match ev.args with [] -> [] | args -> [ ("args", args_json args) ] in
  Json.Obj (base @ phase @ args)

let chrome_json events =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map chrome_event events));
      ("displayTimeUnit", Json.Str "ns");
    ]

let chrome_string events = Json.to_compact_string (chrome_json events) ^ "\n"

let write_chrome ~path events =
  let oc = open_out path in
  (* stream one event per line inside the array: Perfetto-loadable
     and still diffable, without building one giant string *)
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i ev ->
      if i > 0 then output_string oc ",\n";
      output_string oc (Json.to_compact_string (chrome_event ev)))
    events;
  output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Span aggregation (the manifest's span summary and the report's
   flame table): per span name, how often it ran and how long. *)

type span_agg = { sa_count : int; sa_total_ns : int64; sa_max_ns : int64 }

let aggregate events =
  let tbl : (string, span_agg) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun ev ->
      match ev.ph with
      | Instant -> ()
      | Complete dur ->
          let prev =
            match Hashtbl.find_opt tbl ev.name with
            | Some a -> a
            | None -> { sa_count = 0; sa_total_ns = 0L; sa_max_ns = 0L }
          in
          Hashtbl.replace tbl ev.name
            {
              sa_count = prev.sa_count + 1;
              sa_total_ns = Int64.add prev.sa_total_ns dur;
              sa_max_ns = Int64.max prev.sa_max_ns dur;
            })
    events;
  let rows = Hashtbl.fold (fun name a acc -> (name, a) :: acc) tbl [] in
  List.sort (fun (_, a) (_, b) -> Int64.compare b.sa_total_ns a.sa_total_ns) rows

(* test constructor: golden-fixture tests build deterministic events
   without touching the clock *)
let make_event ?(cat = "sim") ?(args = []) ?(tid = 0) ~ts_ns ?dur_ns name =
  {
    name;
    cat;
    ph = (match dur_ns with Some d -> Complete d | None -> Instant);
    ts = ts_ns;
    tid;
    args;
  }
