module J = Storage_report.Json

(* Audited SA007 suppression: the registry's intern path reads, builds
   and publishes under one lock with the result threaded out of the
   critical section by hand; snapshot iterates under the same lock.
   Every unlock is explicit and every path is covered by the tests. *)
[@@@sslint.allow "SA007"]

(* Process-wide switch. One atomic load + branch on every recording
   operation is the entire disabled-path cost. *)
let state = Atomic.make false
let enable () = Atomic.set state true
let disable () = Atomic.set state false
let enabled () = Atomic.get state

(* Timers accumulate integer nanoseconds so that concurrent additions can
   use [Atomic.fetch_and_add]; 2^62 ns is ~146 years of accumulated
   wall-clock time, far beyond any process lifetime. *)
let ns_of_seconds s = int_of_float (s *. 1e9)
let seconds_of_ns ns = float_of_int ns /. 1e9

(* The time source behind every span measurement. [Unix.gettimeofday] is
   wall-clock time: an NTP step (or any administrative clock change)
   between the two reads of a span makes the difference negative or
   wildly large, so spans are clamped to >= 0 where they are computed.
   Kept swappable (atomically, so concurrent timers always see a
   coherent function) for the injected-clock regression tests. *)
let clock : (unit -> float) Atomic.t = Atomic.make Unix.gettimeofday
let now () = (Atomic.get clock) ()

let with_clock c f =
  let prev = Atomic.get clock in
  Atomic.set clock c;
  Fun.protect ~finally:(fun () -> Atomic.set clock prev) f

(* Histogram observations are arbitrary user magnitudes, not process
   lifetimes, so their sum must accumulate as a float: a CAS retry loop
   stands in for the fetch-and-add that [float Atomic.t] lacks. *)
let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

type timer_state = { calls : int Atomic.t; total_ns : int Atomic.t }

type histogram_state = {
  bounds : float array;  (* upper bound of each bucket; last is +inf *)
  bucket_counts : int Atomic.t array;
  observations : int Atomic.t;
  total : float Atomic.t;
}

type metric =
  | M_counter of int Atomic.t
  | M_timer of timer_state
  | M_histogram of histogram_state
  | M_gauge of (unit -> float)

(* The registry. Registration happens at module-initialization time and is
   guarded by a mutex; recording thereafter touches only the metric's own
   atomics. *)
let lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

(* Get-or-create under the lock, so same-name handles share one metric. *)
let intern name build project =
  Mutex.lock lock;
  let found = Hashtbl.find_opt registry name in
  let result =
    match found with
    | Some m -> project m
    | None ->
      let m = build () in
      Hashtbl.replace registry name m;
      project m
  in
  Mutex.unlock lock;
  match result with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs: %S is already registered as another kind" name)

module Counter = struct
  type t = int Atomic.t

  let make name =
    intern name
      (fun () -> M_counter (Atomic.make 0))
      (function M_counter c -> Some c | _ -> None)

  let incr t = if enabled () then Atomic.incr t
  let add t n = if enabled () then ignore (Atomic.fetch_and_add t n)
  let value = Atomic.get
end

module Timer = struct
  type t = timer_state

  let make name =
    intern name
      (fun () ->
        M_timer { calls = Atomic.make 0; total_ns = Atomic.make 0 })
      (function M_timer t -> Some t | _ -> None)

  let time t f =
    if enabled () then begin
      let t0 = now () in
      Fun.protect
        ~finally:(fun () ->
          (* Clamp: a wall-clock step backwards mid-span must not subtract
             from (or, cast to unsigned, explode) the accumulated total. *)
          let dt = Float.max 0. (now () -. t0) in
          Atomic.incr t.calls;
          ignore (Atomic.fetch_and_add t.total_ns (ns_of_seconds dt)))
        f
    end
    else f ()

  let count t = Atomic.get t.calls
  let total_seconds t = seconds_of_ns (Atomic.get t.total_ns)
end

module Histogram = struct
  type t = histogram_state

  (* 1 microsecond, growing by 4x per bucket: 24 buckets reach past 10^8
     seconds. *)
  let lo = 1e-6
  let ratio = 4.
  let buckets = 24

  let make name =
    intern name
      (fun () ->
        let bounds =
          Array.init (buckets + 1) (fun i ->
              if i = buckets then Float.infinity
              else lo *. (ratio ** float_of_int i))
        in
        M_histogram
          {
            bounds;
            bucket_counts = Array.init (buckets + 1) (fun _ -> Atomic.make 0);
            observations = Atomic.make 0;
            total = Atomic.make 0.;
          })
      (function M_histogram h -> Some h | _ -> None)

  let observe t v =
    if enabled () then begin
      let v = if Float.is_finite v && v > 0. then v else 0. in
      let n = Array.length t.bounds in
      let rec bucket i =
        if i >= n - 1 || v <= t.bounds.(i) then i else bucket (i + 1)
      in
      Atomic.incr t.bucket_counts.(bucket 0);
      Atomic.incr t.observations;
      atomic_add_float t.total v
    end

  let count t = Atomic.get t.observations
  let sum t = Atomic.get t.total
end

let gauge name poll =
  Mutex.lock lock;
  Hashtbl.replace registry name (M_gauge poll);
  Mutex.unlock lock

let reset () =
  Mutex.lock lock;
  Hashtbl.iter
    (fun _ -> function
      | M_counter c -> Atomic.set c 0
      | M_timer t ->
        Atomic.set t.calls 0;
        Atomic.set t.total_ns 0
      | M_histogram h ->
        Array.iter (fun c -> Atomic.set c 0) h.bucket_counts;
        Atomic.set h.observations 0;
        Atomic.set h.total 0.
      | M_gauge _ -> ())
    registry;
  Mutex.unlock lock

let sorted_metrics () =
  Mutex.lock lock;
  let all = Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [] in
  Mutex.unlock lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all

let timer_fields t =
  let n = Timer.count t and s = Timer.total_seconds t in
  [
    ("count", J.Int n);
    ("seconds", J.Float s);
    ("mean_seconds", J.Float (if n = 0 then 0. else s /. float_of_int n));
    ("per_second", J.Float (if s > 0. then float_of_int n /. s else 0.));
  ]

let histogram_fields (h : histogram_state) =
  let n = Histogram.count h and s = Histogram.sum h in
  let buckets =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let c = Atomic.get c in
           if c = 0 then None
           else
             let le =
               let b = h.bounds.(i) in
               if Float.is_finite b then J.Float b else J.Null
             in
             Some (J.Obj [ ("le", le); ("count", J.Int c) ]))
         h.bucket_counts)
    |> List.filter_map Fun.id
  in
  [
    ("count", J.Int n);
    ("sum", J.Float s);
    ("mean", J.Float (if n = 0 then 0. else s /. float_of_int n));
    ("buckets", J.List buckets);
  ]

let snapshot () =
  J.Obj
    (List.map
       (fun (name, m) ->
         ( name,
           match m with
           | M_counter c -> J.Int (Counter.value c)
           | M_gauge poll -> J.Float (poll ())
           | M_timer t -> J.Obj (timer_fields t)
           | M_histogram h -> J.Obj (histogram_fields h) ))
       (sorted_metrics ()))

let human_seconds s =
  if s >= 1. then Printf.sprintf "%.3f s" s
  else if s >= 1e-3 then Printf.sprintf "%.3f ms" (s *. 1e3)
  else if s >= 1e-6 then Printf.sprintf "%.3f us" (s *. 1e6)
  else if s > 0. then Printf.sprintf "%.0f ns" (s *. 1e9)
  else "0"

let pp_table ppf () =
  let mean n s = if n = 0 then 0. else s /. float_of_int n in
  let rows =
    List.map
      (fun (name, m) ->
        match m with
        | M_counter c -> [ name; "counter"; string_of_int (Counter.value c) ]
        | M_gauge poll -> [ name; "gauge"; Printf.sprintf "%.2f" (poll ()) ]
        | M_timer t ->
          let n = Timer.count t and s = Timer.total_seconds t in
          [
            name;
            "timer";
            Printf.sprintf "%d calls, %s total, %s/call" n (human_seconds s)
              (human_seconds (mean n s));
          ]
        | M_histogram h ->
          let n = Histogram.count h and s = Histogram.sum h in
          [
            name;
            "histogram";
            Printf.sprintf "%d obs, %s total, %s mean" n (human_seconds s)
              (human_seconds (mean n s));
          ])
      (sorted_metrics ())
  in
  Fmt.pf ppf "%s"
    (Storage_report.Table.render ~title:"engine statistics"
       ~headers:[ "metric"; "kind"; "value" ] rows)
