(* The traced run's span recorder.

   The benchmark opens a span around each of its calls into a layer's
   public function. A span's self time is its duration minus the time its
   child spans cover; self time and minor-heap allocation are summed per
   span name as spans close. Spans stay in memory (up to [cap]; later ones
   still count towards the sums) and are written as trace-event JSON when
   the run ends.

   A "derived" span is a child whose duration the program measured itself
   through one of its existing Storage_obs timers (an evaluate stage, a
   simulator run): the benchmark cannot open a span inside the library, so
   it records the timer's delta as a child of the call that ran it. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;
  start : float;
  stop : float;
  derived : bool;
}

type frame = {
  f_id : int;
  f_name : string;
  f_start : float;
  f_words : float;
  mutable child_time : float;
  mutable child_words : float;
}

type total = { mutable self : float; mutable words : float }

type t = {
  cap : int;
  mutable next_id : int;
  mutable op : int;
  mutable stack : frame list;
  mutable stored : span list;
  mutable n_stored : int;
  mutable dropped : int;
  totals : (string, total) Hashtbl.t;
}

let create () =
  {
    cap = 50_000;
    next_id = 1;
    op = 0;
    stack = [];
    stored = [];
    n_stored = 0;
    dropped = 0;
    totals = Hashtbl.create 64;
  }

let set_op t op = t.op <- op

let total t name =
  match Hashtbl.find_opt t.totals name with
  | Some x -> x
  | None ->
    let x = { self = 0.; words = 0. } in
    Hashtbl.replace t.totals name x;
    x

let store t s =
  if t.n_stored < t.cap then begin
    t.stored <- s :: t.stored;
    t.n_stored <- t.n_stored + 1
  end
  else t.dropped <- t.dropped + 1

let parent_id t = match t.stack with f :: _ -> f.f_id | [] -> 0

let enter t name =
  let f =
    {
      f_id = t.next_id;
      f_name = name;
      f_start = Host.now ();
      f_words = Gc.minor_words ();
      child_time = 0.;
      child_words = 0.;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- f :: t.stack

let leave t =
  match t.stack with
  | [] -> invalid_arg "Spans.leave: no open span"
  | f :: rest ->
    let stop = Host.now () in
    let words = Gc.minor_words () -. f.f_words in
    let dur = stop -. f.f_start in
    t.stack <- rest;
    let x = total t f.f_name in
    x.self <- x.self +. Float.max 0. (dur -. f.child_time);
    x.words <- x.words +. Float.max 0. (words -. f.child_words);
    (match rest with
    | p :: _ ->
      p.child_time <- p.child_time +. dur;
      p.child_words <- p.child_words +. words
    | [] -> ());
    store t
      {
        id = f.f_id;
        name = f.f_name;
        op = t.op;
        parent = parent_id t;
        start = f.f_start;
        stop;
        derived = false;
      }

let span t name f =
  enter t name;
  match f () with
  | v ->
    leave t;
    v
  | exception e ->
    leave t;
    raise e

(* [derived t children] adds completed children of the innermost open span:
   [(name, seconds)] pairs, laid end to end so they finish now. *)
let derived t children =
  match t.stack with
  | [] -> invalid_arg "Spans.derived: no open span"
  | p :: _ ->
    let stop = Host.now () in
    ignore
      (List.fold_left
         (fun stop (name, dur) ->
           let dur = Float.max 0. dur in
           let x = total t name in
           x.self <- x.self +. dur;
                  p.child_time <- p.child_time +. dur;
           store t
             {
               id = t.next_id;
               name;
               op = t.op;
               parent = p.f_id;
               start = stop -. dur;
               stop;
               derived = true;
             };
           t.next_id <- t.next_id + 1;
           stop -. dur)
         stop children)

let self_time t name =
  match Hashtbl.find_opt t.totals name with Some x -> x.self | None -> 0.

(* Summed self allocation of every span whose name starts with [prefix] (a
   layer: "model.", "optimize.", ...). *)
let layer_words t prefix =
  Hashtbl.fold
    (fun name x acc ->
      if String.starts_with ~prefix name then acc +. x.words else acc)
    t.totals 0.

(* Trace-event JSON (the Chrome/Perfetto "X" complete-event format):
   microsecond timestamps from the first span. *)
let write t path =
  let module J = Storage_report.Json in
  let spans = List.rev t.stored in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let us x = Float.round ((x -. t0) *. 1e7) /. 10. in
  let event s =
    J.Obj
      [
        ("name", J.String s.name);
        ("cat", J.String (List.hd (String.split_on_char '.' s.name)));
        ("ph", J.String "X");
        ("ts", J.Float (us s.start));
        ("dur", J.Float (us s.stop -. us s.start));
        ("pid", J.Int 1);
        ("tid", J.Int 1);
        ( "args",
          J.Obj
            [
              ("id", J.Int s.id);
              ("parent", J.Int s.parent);
              ("op", J.Int s.op);
              ("derived", J.Bool s.derived);
            ] );
      ]
  in
  let doc =
    J.Obj
      [
        ("traceEvents", J.List (List.map event spans));
        ("displayTimeUnit", J.String "ms");
        ( "otherData",
          J.Obj
            [
              ("spans_stored", J.Int t.n_stored);
              ("spans_dropped", J.Int t.dropped);
            ] );
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n')

(* --- GC time from the runtime's own event ring --- *)

(* Seconds spent in minor collections and major slices since [start_gc],
   read from OCaml's runtime_events ring of this process. *)
type gc = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  seconds : float ref;
}

let start_gc () =
  Runtime_events.start ();
  let cursor = Runtime_events.create_cursor None in
  let seconds = ref 0. in
  let open_at = Hashtbl.create 8 in
  let is_gc = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
    | _ -> false
  in
  let ns ts = Runtime_events.Timestamp.to_int64 ts in
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun dom ts phase ->
        if is_gc phase then Hashtbl.replace open_at (dom, phase) (ns ts))
      ~runtime_end:(fun dom ts phase ->
        if is_gc phase then
          match Hashtbl.find_opt open_at (dom, phase) with
          | Some t0 ->
            Hashtbl.remove open_at (dom, phase);
            seconds :=
              !seconds +. (Int64.to_float (Int64.sub (ns ts) t0) *. 1e-9)
          | None -> ())
      ()
  in
  { cursor; callbacks; seconds }

(* Drain the ring and return the GC seconds accumulated so far. *)
let gc_seconds g =
  ignore (Runtime_events.read_poll g.cursor g.callbacks None);
  !(g.seconds)

(* A span whose bounds were taken by the caller (a client request timed
   from its due time), with its children as [(name, start, stop)]. *)
let completed t ~name ~start ~stop children =
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  let covered =
    List.fold_left
      (fun acc (child, c0, c1) ->
        let x = total t child in
        x.self <- x.self +. (c1 -. c0);
            store t
          {
            id = t.next_id;
            name = child;
            op = t.op;
            parent = id;
            start = c0;
            stop = c1;
            derived = false;
          };
        t.next_id <- t.next_id + 1;
        acc +. (c1 -. c0))
      0. children
  in
  let x = total t name in
  x.self <- x.self +. Float.max 0. (stop -. start -. covered);
  store t { id; name; op = t.op; parent = parent_id t; start; stop; derived = false }
