(* Typed metrics registry.

   Counters and gauges are atomics, histograms are log-bucketed
   atomic arrays, so worker domains publish without locks; a metric
   is registered once by name (get-or-create) and every caller holds
   the same instance.  Snapshots are cumulative; a run reports the
   {!diff} of the snapshots taken around it. *)

type counter = { c : int Atomic.t }

type gauge = { g : float Atomic.t; high_water : bool  (** {!set} only raises it *) }

type histogram = {
  h_lo : float;  (* upper bound of bucket 0 *)
  h_ratio : float;  (* geometric bucket growth *)
  h_counts : int Atomic.t array;  (* last bucket is the +inf overflow *)
  h_count : int Atomic.t;
  h_mutex : Mutex.t;  (* guards h_sum only *)
  mutable h_sum : float;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let registry_mutex = Mutex.create ()

let type_error name =
  invalid_arg (Printf.sprintf "Metrics: %S already registered with a different type" name)

let register name make classify =
  Mutex.lock registry_mutex;
  let m =
    match Hashtbl.find_opt registry name with
    | Some m -> m
    | None ->
        let m = make () in
        Hashtbl.replace registry name m;
        m
  in
  Mutex.unlock registry_mutex;
  match classify m with Some v -> v | None -> type_error name

let counter name =
  register name
    (fun () -> C { c = Atomic.make 0 })
    (function C c -> Some c | G _ | H _ -> None)

let make_gauge ~high_water name =
  register name
    (fun () -> G { g = Atomic.make 0.0; high_water })
    (function G g when g.high_water = high_water -> Some g | G _ | C _ | H _ -> None)

let gauge = make_gauge ~high_water:false
let high_water = make_gauge ~high_water:true

(* default histogram shape: 40 geometric buckets doubling from 1 us —
   covers 1 us .. ~9 h, plenty for both per-solve and per-campaign
   durations in seconds *)
let histogram ?(lo = 1e-6) ?(ratio = 2.0) ?(buckets = 40) name =
  if not (lo > 0.0 && ratio > 1.0 && buckets >= 2) then
    invalid_arg "Metrics.histogram: need lo > 0, ratio > 1, buckets >= 2";
  register name
    (fun () ->
      H
        {
          h_lo = lo;
          h_ratio = ratio;
          h_counts = Array.init buckets (fun _ -> Atomic.make 0);
          h_count = Atomic.make 0;
          h_mutex = Mutex.create ();
          h_sum = 0.0;
        })
    (function H h -> Some h | C _ | G _ -> None)

let add c n = if n <> 0 then ignore (Atomic.fetch_and_add c.c n)

let incr c = add c 1

let rec set g v =
  if not g.high_water then Atomic.set g.g v
  else
    let cur = Atomic.get g.g in
    if v > cur && not (Atomic.compare_and_set g.g cur v) then set g v

let restart_high_water () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ m -> match m with G g when g.high_water -> Atomic.set g.g 0.0 | G _ | C _ | H _ -> ())
    registry;
  Mutex.unlock registry_mutex

let bucket_index h v =
  if not (v > h.h_lo) then 0
  else
    let i = 1 + int_of_float (Float.ceil (Float.log (v /. h.h_lo) /. Float.log h.h_ratio)) in
    min (Array.length h.h_counts - 1) (max 1 i)

let bucket_upper h i =
  if i = Array.length h.h_counts - 1 then Float.infinity else h.h_lo *. (h.h_ratio ** float_of_int i)

let observe h v =
  ignore (Atomic.fetch_and_add h.h_counts.(bucket_index h v) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  Mutex.lock h.h_mutex;
  h.h_sum <- h.h_sum +. v;
  Mutex.unlock h.h_mutex

(* ------------------------------------------------------------------ *)
(* Snapshots *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_buckets : (float * int) list;  (* (upper bound, count), zero buckets dropped *)
}

type value = Counter of int | Gauge of float | Histogram of hist_snapshot

type snapshot = (string * value) list

let snapshot_metric = function
  | C c -> Counter (Atomic.get c.c)
  | G g -> Gauge (Atomic.get g.g)
  | H h ->
      Mutex.lock h.h_mutex;
      let sum = h.h_sum in
      Mutex.unlock h.h_mutex;
      let buckets = ref [] in
      for i = Array.length h.h_counts - 1 downto 0 do
        let n = Atomic.get h.h_counts.(i) in
        if n > 0 then buckets := (bucket_upper h i, n) :: !buckets
      done;
      Histogram { hs_count = Atomic.get h.h_count; hs_sum = sum; hs_buckets = !buckets }

let snapshot () =
  Mutex.lock registry_mutex;
  let rows = Hashtbl.fold (fun name m acc -> (name, snapshot_metric m) :: acc) registry [] in
  Mutex.unlock registry_mutex;
  List.sort (fun (a, _) (b, _) -> compare a b) rows

(* [diff before after]: what a run added.  Counters and histogram
   counts subtract, gauges and metrics absent from [before] pass
   through. *)
let diff before after =
  List.filter_map
    (fun (name, v_after) ->
      match (v_after, List.assoc_opt name before) with
      | Counter a, Some (Counter b) -> if a = b then None else Some (name, Counter (a - b))
      | Gauge _, _ -> Some (name, v_after)
      | Histogram a, Some (Histogram b) ->
          let buckets =
            List.filter_map
              (fun (ub, n) ->
                let old = match List.assoc_opt ub b.hs_buckets with Some o -> o | None -> 0 in
                if n - old > 0 then Some (ub, n - old) else None)
              a.hs_buckets
          in
          if a.hs_count = b.hs_count then None
          else
            Some
              ( name,
                Histogram
                  {
                    hs_count = a.hs_count - b.hs_count;
                    hs_sum = a.hs_sum -. b.hs_sum;
                    hs_buckets = buckets;
                  } )
      | (Counter _ | Histogram _), _ -> Some (name, v_after))
    after

(* upper bound of the bucket holding the [q]-quantile sample
   (0 <= q <= 1); [None] on an empty histogram *)
let percentile hs q =
  if hs.hs_count = 0 then None
  else begin
    let rank = Float.max 1.0 (Float.ceil (q *. float_of_int hs.hs_count)) in
    let rec walk cum = function
      | [] -> None
      | (ub, n) :: rest ->
          let cum = cum + n in
          if float_of_int cum >= rank then Some ub else walk cum rest
    in
    walk 0 hs.hs_buckets
  end

(* zero every registered metric (tests, and the CLI's per-command
   scoping); the metric instances stay valid *)
let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> Atomic.set c.c 0
      | G g -> Atomic.set g.g 0.0
      | H h ->
          Array.iter (fun a -> Atomic.set a 0) h.h_counts;
          Atomic.set h.h_count 0;
          Mutex.lock h.h_mutex;
          h.h_sum <- 0.0;
          Mutex.unlock h.h_mutex)
    registry;
  Mutex.unlock registry_mutex

(* ------------------------------------------------------------------ *)
(* Rendering *)

let value_json = function
  | Counter n -> Json.Num (float_of_int n)
  | Gauge v -> Json.Num v
  | Histogram hs ->
      Json.Obj
        [
          ("count", Json.Num (float_of_int hs.hs_count));
          ("sum", Json.Num hs.hs_sum);
          ( "buckets",
            Json.List
              (List.map
                 (fun (ub, n) ->
                   Json.Obj
                     [
                       ( "le",
                         if Float.is_finite ub then Json.Num ub else Json.Str "+inf" );
                       ("count", Json.Num (float_of_int n));
                     ])
                 hs.hs_buckets) );
        ]

let to_json snap = Json.Obj (List.map (fun (name, v) -> (name, value_json v)) snap)

let value_of_json j =
  match j with
  | Json.Num f when Float.is_integer f -> Some (Counter (int_of_float f))
  | Json.Num f -> Some (Gauge f)
  | Json.Obj _ -> (
      match (Json.member "count" j, Json.member "sum" j, Json.member "buckets" j) with
      | Some (Json.Num count), Some (Json.Num sum), Some (Json.List bs) ->
          let buckets =
            List.filter_map
              (fun b ->
                match (Json.member "le" b, Json.member "count" b) with
                | Some le, Some (Json.Num n) ->
                    let ub =
                      match le with
                      | Json.Num ub -> Some ub
                      | Json.Str "+inf" -> Some Float.infinity
                      | _ -> None
                    in
                    Option.map (fun ub -> (ub, int_of_float n)) ub
                | _ -> None)
              bs
          in
          Some (Histogram { hs_count = int_of_float count; hs_sum = sum; hs_buckets = buckets })
      | _ -> None)
  | _ -> None

let of_json = function
  | Json.Obj members ->
      List.filter_map (fun (name, j) -> Option.map (fun v -> (name, v)) (value_of_json j)) members
  | _ -> []

let render_text snap =
  let b = Buffer.create 512 in
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Buffer.add_string b (Printf.sprintf "%-40s %12d\n" name n)
      | Gauge f -> Buffer.add_string b (Printf.sprintf "%-40s %12.4g\n" name f)
      | Histogram hs ->
          let pct q = match percentile hs q with
            | Some ub when Float.is_finite ub -> Printf.sprintf "%.3g" ub
            | Some _ -> "inf"
            | None -> "-"
          in
          Buffer.add_string b
            (Printf.sprintf "%-40s %12d  sum %.4g  p50<=%s p90<=%s p99<=%s\n" name hs.hs_count
               hs.hs_sum (pct 0.5) (pct 0.9) (pct 0.99)))
    snap;
  Buffer.contents b
