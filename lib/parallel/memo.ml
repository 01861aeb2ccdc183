(* Audited SA007 suppression: the memo deliberately drops its lock
   while computing a missed entry (so one slow computation never blocks
   other keys), then reacquires it to publish — an unlock-in-the-middle
   shape Mutex.protect cannot express. Every path below unlocks before
   raising or returning. *)
[@@@sslint.allow "SA007"]

(* Global engine metrics, aggregated across every memo instance in the
   process (the observability layer reports cache behaviour as a whole;
   per-instance counts remain available on each [t]). *)
let obs_hits = Storage_obs.Counter.make "memo.hits"
let obs_misses = Storage_obs.Counter.make "memo.misses"

type 'a t = {
  lock : Mutex.t;
  table : (string, 'a) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { lock = Mutex.create (); table = Hashtbl.create 256; hits = 0; misses = 0 }

let find_or_add t key compute =
  Mutex.lock t.lock;
  match Hashtbl.find_opt t.table key with
  | Some v ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.lock;
    Storage_obs.Counter.incr obs_hits;
    v
  | None ->
    t.misses <- t.misses + 1;
    Mutex.unlock t.lock;
    Storage_obs.Counter.incr obs_misses;
    let v = compute () in
    Mutex.lock t.lock;
    let v =
      (* Another domain may have raced us here; keep the first insert so
         every caller shares one value. *)
      match Hashtbl.find_opt t.table key with
      | Some existing -> existing
      | None ->
        Hashtbl.add t.table key v;
        v
    in
    Mutex.unlock t.lock;
    v

let hits t = Mutex.protect t.lock (fun () -> t.hits)
let misses t = Mutex.protect t.lock (fun () -> t.misses)
