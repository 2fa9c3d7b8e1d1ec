(* In-memory spans recorded around the benchmark's own calls into the
   simulator's layers.  Recording is off unless [enable] was called, so
   the untraced runs pay one branch per call site.  Spans are opened and
   closed on the main domain only: the pool work inside a library call
   is attributed to the span around that call. *)

module Clock = Cml_telemetry.Clock
module J = Cml_telemetry.Json

type t = {
  id : int;
  name : string;
  rep : int;  (** shared by every span of one traced rep *)
  parent : int;  (** id of the enclosing span, -1 at the root *)
  start_ns : int64;
  mutable end_ns : int64;
}

let enabled = ref false
let recorded : t list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let rep_id = ref 0

let enable () = enabled := true
let disable () = enabled := false

let record name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = { id; name; rep = !rep_id; parent; start_ns = Clock.now_ns (); end_ns = 0L } in
    stack := id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.end_ns <- Clock.now_ns ();
        stack := List.tl !stack;
        recorded := s :: !recorded)
      f
  end

(* Open a root span under a fresh rep id and return its spans (root
   first) with the result. *)
let traced_rep name f =
  incr rep_id;
  let rep = !rep_id in
  let v = record name f in
  (v, List.sort (fun a b -> compare a.id b.id) (List.filter (fun s -> s.rep = rep) !recorded))

let seconds s = Clock.ns_to_s (Int64.sub s.end_ns s.start_ns)

(* A span's self time is its duration minus its direct children's:
   children never overlap because every span is opened on one domain. *)
let self_seconds spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (seconds s +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    spans;
  List.map (fun s -> (s, seconds s -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id))) spans

(* Self time and span count per name, in first-seen order. *)
let by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (t, n) -> Hashtbl.replace tbl s.name (t +. self, n + 1)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (self, 1))
    (self_seconds spans);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* Chrome trace-event format: one complete ("X") event per span, times
   in whole microseconds since the process epoch (the JSON writer keeps
   six significant digits of anything that is not an integer). *)
let write_chrome path =
  let us ns = Float.round (Clock.ns_to_us (Int64.sub ns Clock.epoch)) in
  let event s =
    J.Obj
      [
        ("name", J.Str s.name);
        ( "cat",
          J.Str
            (match String.index_opt s.name '.' with
            | Some i -> String.sub s.name 0 i
            | None -> s.name) );
        ("ph", J.Str "X");
        ("ts", J.Num (us s.start_ns));
        ("dur", J.Num (us s.end_ns -. us s.start_ns));
        ("pid", J.Num 1.0);
        ("tid", J.Num 1.0);
        ( "args",
          J.Obj
            [
              ("id", J.Num (float_of_int s.id));
              ("parent", J.Num (float_of_int s.parent));
              ("rep", J.Num (float_of_int s.rep));
            ] );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_compact_string (J.Obj [ ("traceEvents", J.List (List.rev_map event !recorded)) ]));
  output_char oc '\n';
  close_out oc
