(* Domain pool: a Mutex/Condition work queue feeding [jobs - 1] spawned
   domains, with the submitting domain helping on its own batches.

   Memory-model note: workers write batch results into disjoint slots of a
   shared array and then decrement the batch counter under the pool mutex;
   the submitter only reads the array after observing the counter hit zero
   under the same mutex, so every write happens-before every read.

   Audited SA007 suppression: the pool's lock/unlock pairs implement the
   Mutex/Condition work-queue protocol — Condition.wait runs with the
   lock held and hands it back on wakeup, and the help loop interleaves
   lock ownership with task execution — shapes Mutex.protect cannot
   express. Every unlock path is written out explicitly below. *)
[@@@sslint.allow "SA007"]

type batch = {
  mutable remaining : int;  (* chunks not yet finished *)
  mutable failure : (int * exn * Printexc.raw_backtrace) option;
      (* failed input of the smallest index seen so far *)
  mutable cancelled : bool;
  finished : Condition.t;  (* signalled when [remaining] reaches zero *)
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (* signalled when the queue grows or on shutdown *)
  queue : (float * (unit -> unit)) Queue.t;
      (* (enqueue time, task); tasks never raise. The timestamp is 0. when
         stats are disabled — taken only to measure queue-wait time. *)
  mutable closing : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

let default_jobs () = Domain.recommended_domain_count ()

(* Engine metrics: how many tasks each domain ran (index 0 is the
   submitting domain, which helps on its own batches) and how long tasks
   sat queued before a domain picked them up. Aggregated across pools. *)
let obs_queue_wait = Storage_obs.Histogram.make "pool.queue_wait_seconds"

(* Audited SA002 suppression: this registry is created once, read and
   written only under its own lock just below, and holds counters — the
   same discipline as the audited Storage_obs registry it feeds. *)
let[@sslint.allow "SA002"] obs_domain_tasks =
  (* Index 0 is registered here and every other index when a pool spawns
     its domain ([create]), so a snapshot lists every domain of every
     pool created so far, whether or not it has run a task yet. *)
  let lock = Mutex.create () in
  let known = Hashtbl.create 16 in
  let get i =
    Mutex.lock lock;
    let c =
      match Hashtbl.find_opt known i with
      | Some c -> c
      | None ->
        let c =
          Storage_obs.Counter.make (Printf.sprintf "pool.domain.%d.tasks" i)
        in
        Hashtbl.replace known i c;
        c
    in
    Mutex.unlock lock;
    c
  in
  ignore (get 0);
  get

let record_task ~domain_index ~enqueued_at =
  if Storage_obs.enabled () then begin
    Storage_obs.Counter.incr (obs_domain_tasks domain_index);
    (* Tasks enqueued while stats were disabled carry [enqueued_at = 0.]
       (no timestamp was taken); recording those would log a bogus
       ~epoch-sized wait when stats come on mid-batch. The wait itself is
       clamped: both reads are wall clock (see {!Storage_obs.now}), so a
       clock step between enqueue and pickup could otherwise go
       negative. *)
    if enqueued_at > 0. then
      Storage_obs.Histogram.observe obs_queue_wait
        (Float.max 0. (Storage_obs.now () -. enqueued_at))
  end

let worker ~index t =
  let rec loop () =
    Mutex.lock t.lock;
    while Queue.is_empty t.queue && not t.closing do
      Condition.wait t.work t.lock
    done;
    match Queue.take_opt t.queue with
    | None ->
      (* closing, and the queue is drained *)
      Mutex.unlock t.lock
    | Some (enqueued_at, task) ->
      Mutex.unlock t.lock;
      record_task ~domain_index:index ~enqueued_at;
      task ();
      loop ()
  in
  loop ()

let shutdown t =
  Mutex.lock t.lock;
  let workers = t.workers in
  t.workers <- [];
  t.closing <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  List.iter Domain.join workers

let create ~jobs =
  if jobs < 1 then invalid_arg "Pool.create: jobs must be >= 1";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [];
      jobs;
    }
  in
  (* One domain at a time: when the runtime runs out of domains (OCaml 5.1
     stops at 128, the caller's included), the workers already spawned
     are joined before the error escapes. *)
  for index = 1 to jobs - 1 do
    ignore (obs_domain_tasks index);
    match Domain.spawn (fun () -> worker ~index t) with
    | d -> t.workers <- d :: t.workers
    | exception Failure _ ->
      shutdown t;
      invalid_arg
        (Printf.sprintf "Pool.create: the OCaml runtime cannot run %d domains"
           jobs)
  done;
  t

(* Called with [t.lock] held. *)
let record_failure batch i exn bt =
  (match batch.failure with
  | Some (j, _, _) when j <= i -> ()
  | Some _ | None -> batch.failure <- Some (i, exn, bt));
  batch.cancelled <- true

(* One batch of [chunk]-element tasks; [chunk >= 1]. *)
let map_chunked ~chunk t f xs =
  match xs with
  | [] -> []
  | [ x ] -> [ f x ]
  | xs ->
    let input = Array.of_list xs in
    let n = Array.length input in
    let nchunks = (n + chunk - 1) / chunk in
    let results = Array.make n None in
    let batch =
      { remaining = nchunks; failure = None; cancelled = false;
        finished = Condition.create () }
    in
    (* Audited SA006 suppression: the catch-all does not swallow —
       every exception (fatal ones included) is recorded with its
       backtrace and re-raised by the batch wait below, preserving the
       first-failing-index contract. *)
    let[@sslint.allow "SA006"] run_chunk start =
      Mutex.lock t.lock;
      let cancelled = batch.cancelled in
      Mutex.unlock t.lock;
      if not cancelled then
        for i = start to min n (start + chunk) - 1 do
          match f input.(i) with
          | y -> results.(i) <- Some y
          | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.lock t.lock;
            record_failure batch i exn bt;
            Mutex.unlock t.lock
        done;
      Mutex.lock t.lock;
      batch.remaining <- batch.remaining - 1;
      if batch.remaining = 0 then Condition.broadcast batch.finished;
      Mutex.unlock t.lock
    in
    let enqueued_at =
      if Storage_obs.enabled () then Storage_obs.now () else 0.
    in
    Mutex.lock t.lock;
    for c = 0 to nchunks - 1 do
      Queue.add (enqueued_at, fun () -> run_chunk (c * chunk)) t.queue
    done;
    Condition.broadcast t.work;
    (* Help until this batch completes; tasks popped here may belong to
       other batches, which is fine — somebody has to run them. *)
    let rec help () =
      if batch.remaining > 0 then
        match Queue.take_opt t.queue with
        | Some (enqueued_at, task) ->
          Mutex.unlock t.lock;
          record_task ~domain_index:0 ~enqueued_at;
          task ();
          Mutex.lock t.lock;
          help ()
        | None ->
          Condition.wait batch.finished t.lock;
          help ()
    in
    help ();
    Mutex.unlock t.lock;
    (match batch.failure with
    | Some (_, exn, bt) -> Printexc.raise_with_backtrace exn bt
    | None -> ());
    Array.to_list
      (Array.map (function Some y -> y | None -> assert false) results)

let map_on t f xs =
  map_chunked ~chunk:(max 1 (List.length xs / (t.jobs * 4))) t f xs

(* Auto chunk for one window's batch: as coarse as the cap allows (a full
   window deals chunks of hundreds), but never so coarse that a short
   batch — the tail of a grid, or a grid smaller than one window — leaves
   domains idle. *)
let auto_chunk ~window ~jobs ~len =
  max 1 (min (window / (jobs * 2)) (len / jobs))

(* Streaming map: materialize a bounded window of the input, run it as
   one batch, yield the results in order, refill. Peak memory is
   O(window), whatever the length of the input sequence. An exception
   inside a window surfaces when that window is forced — i.e. after
   every result of earlier windows has been yielded, which keeps the
   "first exception by input index" contract of [map_on].

   Scheduling granularity: each window is dealt to the domains in
   contiguous chunks of [chunk] elements — one queue task per chunk, not
   per element. The per-task cost (queue mutex traffic, condition
   signalling, closure allocation) is tens of microseconds; evaluations
   are single-digit microseconds. Only batching hundreds of them per
   task makes the dispatch overhead vanish against the work. The window,
   [512 * jobs], is sized so that the auto chunk lands in the hundreds
   while still giving every domain a few chunks per window to smooth
   uneven evaluation times. *)
let map_seq ?chunk t f xs =
  let window = 512 * t.jobs in
  (match chunk with
  | Some c when c < 1 -> invalid_arg "Pool.map_seq: chunk must be >= 1"
  | Some _ | None -> ());
  let rec take acc n xs =
    if n = 0 then (List.rev acc, xs)
    else
      match xs () with
      | Seq.Nil -> (List.rev acc, Seq.empty)
      | Seq.Cons (x, rest) -> take (x :: acc) (n - 1) rest
  in
  let rec windows xs () =
    match take [] window xs with
    | [], _ -> Seq.Nil
    | batch, rest ->
      let chunk =
        match chunk with
        | Some c -> c
        | None ->
          auto_chunk ~window ~jobs:t.jobs ~len:(List.length batch)
      in
      Seq.append (List.to_seq (map_chunked ~chunk t f batch)) (windows rest) ()
  in
  windows xs
