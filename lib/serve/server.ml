open Storage_model
module Optimize_request = Storage_presets.Optimize_request

(* Audited SA007 suppression: the daemon's lock/unlock pairs follow the
   queue-and-condition protocol (Condition.wait must run with the lock
   held and reacquires it on return), which Mutex.protect cannot
   express, and the listening socket deliberately outlives every
   binding that touches it. *)
[@@@sslint.allow "SA007"]

type config = {
  port : int;
  workers : int;
  queue_capacity : int;
  max_body : int;
  timeout : float;
}

let default_config =
  {
    port = 8080;
    workers = 4;
    queue_capacity = 64;
    max_body = 1 lsl 20;
    timeout = 10.;
  }

type t = {
  cfg : config;
  engine : Storage_engine.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  stop_flag : bool Atomic.t;
  lock : Mutex.t;
  work : Condition.t;
  conns : Unix.file_descr Queue.t;
  mutable acceptor : unit Domain.t option;
  mutable handlers : unit Domain.t list;
  mutable stopped : bool;
}

(* --- metrics (registered once, names stable whether or not a server is
   running) --- *)

let obs_requests = Storage_obs.Counter.make "serve.requests"
let obs_bad_requests = Storage_obs.Counter.make "serve.bad_requests"
let obs_rejected = Storage_obs.Counter.make "serve.rejected_busy"
let obs_errors = Storage_obs.Counter.make "serve.errors"
let obs_request_time = Storage_obs.Timer.make "serve.request_seconds"

(* --- request handlers --- *)

(* The pretty text and its newline in one buffer. A page holds a
   two-scenario /evaluate answer (~2.8 KB) without regrowing. *)
let json_body j =
  let buf = Buffer.create 4096 in
  Storage_report.Json.add_pretty buf j;
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Byte-identical to `ssdep evaluate --file ... --json`, which evaluates
   the same way. Every request evaluates afresh: parsing the body already
   costs an order of magnitude more than evaluating it, and a cache would
   keep a report for every distinct body a client sends. *)
let handle_evaluate (req : Http.request) =
  match Storage_spec.Spec.of_string req.body with
  | Error e -> Http.error 400 e
  | Ok (_, []) ->
    Http.error 400 "design defines no [scenario] sections to evaluate"
  | Ok (design, scenarios) ->
    let names, scenarios = List.split scenarios in
    let named = List.combine names (Evaluate.run_all design scenarios) in
    Http.ok_json (json_body (Json_output.reports named))

(* Byte-identical to `ssdep lint FILE --json`, and rejects what it
   rejects. *)
let handle_lint (req : Http.request) =
  match Storage_spec.Spec.of_string ~validate:false req.body with
  | Error e -> Http.error 400 e
  | Ok (design, scenarios) ->
    let found = Storage_lint.check ~scenarios design in
    Http.ok_json
      (json_body (Storage_lint.to_json ~design:design.Design.name found))

(* Query parsing and the service's caps only: the search and its text
   are [Optimize_request]'s, the same code `ssdep optimize` prints. *)
let handle_optimize t (req : Http.request) =
  let param name parse default =
    match Http.query_param req name with
    | None -> Ok default
    | Some raw -> Result.map_error (Printf.sprintf "%s: %s" name) (parse raw)
  in
  let objective raw = Result.map Option.some (Optimize_request.hours raw) in
  let count ~max raw =
    match int_of_string_opt raw with
    | Some v when v >= 1 && v <= max -> Ok v
    | Some _ | None ->
      Error (Printf.sprintf "%S is not an integer in [1, %d]" raw max)
  in
  let ( let* ) r f = match r with Error e -> Http.error 400 e | Ok v -> f v in
  let* rto = param "rto" objective None in
  let* rpo = param "rpo" objective None in
  let* top_k =
    param "top_k" (fun raw -> Result.map Option.some (count ~max:1000 raw)) None
  in
  (* The grid is O(scale^3) designs; a service must bound what one
     request can make it chew. *)
  let* grid_scale = param "grid_scale" (count ~max:4) 1 in
  Http.ok_text
    (Optimize_request.listing ~engine:t.engine
       { Optimize_request.rto; rpo; top_k; grid_scale })

let handle_stats () = Http.ok_json (json_body (Storage_obs.snapshot ()))

let route t (req : Http.request) =
  match (req.meth, req.path) with
  | "GET", "/healthz" -> Http.ok_text "ok\n"
  | "GET", "/stats" -> handle_stats ()
  | "POST", "/evaluate" -> handle_evaluate req
  | "POST", "/lint" -> handle_lint req
  | ("POST" | "GET"), "/optimize" -> handle_optimize t req
  | _, ("/healthz" | "/stats" | "/evaluate" | "/lint" | "/optimize") ->
    Http.error 405 (Printf.sprintf "method %s not allowed here" req.meth)
  | _, path -> Http.error 404 (Printf.sprintf "no such endpoint %S" path)

(* One broken request must never take the daemon (or even this worker)
   down: anything a handler throws becomes a 500. Anything, that is,
   except the fatal runtime conditions — turning Out_of_memory or
   Stack_overflow into an HTTP response would leave a wedged runtime
   serving traffic, and swallowing Sys.Break would make the daemon
   unkillable from a terminal. Those re-raise. *)
let guard_route f =
  try f () with
  | (Out_of_memory | Stack_overflow | Sys.Break) as fatal -> raise fatal
  | exn ->
    Storage_obs.Counter.incr obs_errors;
    Http.error 500 (Printexc.to_string exn)

let handle_connection t fd =
  (match Http.read_request ~max_body:t.cfg.max_body fd with
  | Error resp ->
    Storage_obs.Counter.incr obs_bad_requests;
    Http.write_response fd resp
  | Ok req ->
    Storage_obs.Counter.incr obs_requests;
    let resp =
      Storage_obs.Timer.time obs_request_time @@ fun () ->
      guard_route (fun () -> route t req)
    in
    Http.write_response fd resp);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* --- domains --- *)

let handler_loop t =
  let rec next () =
    (* Drain the queue even when stopping: every admitted connection
       gets an answer. *)
    match Queue.take_opt t.conns with
    | Some fd -> Some fd
    | None ->
      if Atomic.get t.stop_flag then None
      else begin
        Condition.wait t.work t.lock;
        next ()
      end
  in
  let rec loop () =
    Mutex.lock t.lock;
    let fd = next () in
    Mutex.unlock t.lock;
    match fd with
    | None -> ()
    | Some fd ->
      handle_connection t fd;
      loop ()
  in
  loop ()

let set_timeouts fd timeout =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout

let admit t fd =
  Mutex.lock t.lock;
  if Queue.length t.conns >= t.cfg.queue_capacity then begin
    Mutex.unlock t.lock;
    (* Back-pressure: answer busy right here on the acceptor, so load
       beyond the bound costs one write, not unbounded queueing. *)
    Storage_obs.Counter.incr obs_rejected;
    Http.write_response fd (Http.error 429 "server busy, try again");
    try Unix.close fd with Unix.Unix_error _ -> ()
  end
  else begin
    Queue.add fd t.conns;
    Condition.signal t.work;
    Mutex.unlock t.lock
  end

let acceptor_loop t =
  let rec loop () =
    if not (Atomic.get t.stop_flag) then begin
      (* Poll with a short select timeout so a stop request is noticed
         within ~200 ms without needing a wakeup pipe. *)
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> (
          (* [start] already applied the timeout to the listening socket,
             so this cannot fail for the value itself; a connection the
             kernel will not configure is dropped, never the acceptor. *)
          match set_timeouts fd t.cfg.timeout with
          | () -> admit t fd
          | exception Unix.Unix_error _ -> (
            try Unix.close fd with Unix.Unix_error _ -> ()))
        | exception Unix.Unix_error _ -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* --- lifecycle --- *)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Atomic.set t.stop_flag true;
    (* Wake every sleeping handler; those mid-request finish first —
       [handler_loop] drains the queue before honouring the flag. *)
    Mutex.lock t.lock;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    Option.iter Domain.join t.acceptor;
    t.acceptor <- None;
    List.iter Domain.join t.handlers;
    t.handlers <- [];
    try Unix.close t.listen_fd with Unix.Unix_error _ -> ()
  end

let start ?(config = default_config) engine =
  if config.workers < 1 then invalid_arg "Server.start: workers must be >= 1";
  if config.queue_capacity < 1 then
    invalid_arg "Server.start: queue_capacity must be >= 1";
  if config.max_body < 1 then invalid_arg "Server.start: max_body must be >= 1";
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* The kernel holds a timeout as a timeval: apply this one to the
     listening socket and read it back, so a value it refuses (NaN,
     infinite, 2^31 s or more) or rounds to zero (no timeout at all)
     fails here, before any client connects. *)
  let timeout_held =
    match set_timeouts listen_fd config.timeout with
    | () -> Unix.getsockopt_float listen_fd Unix.SO_RCVTIMEO > 0.
    | exception Unix.Unix_error _ -> false
  in
  if not timeout_held then begin
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    invalid_arg
      (Printf.sprintf
         "Server.start: timeout must be at least a microsecond and below \
          2^31 seconds, got %s"
         (Float.to_string config.timeout))
  end;
  (* A service whose /stats endpoint is the observability story records
     by default. *)
  Storage_obs.enable ();
  (match
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_loopback, config.port));
     Unix.listen listen_fd 128
   with
  | () -> ()
  | exception e ->
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> assert false
  in
  let t =
    {
      cfg = config;
      engine;
      listen_fd;
      bound_port;
      stop_flag = Atomic.make false;
      lock = Mutex.create ();
      work = Condition.create ();
      conns = Queue.create ();
      acceptor = None;
      handlers = [];
      stopped = false;
    }
  in
  Storage_obs.gauge "serve.queue_depth" (fun () ->
      Mutex.lock t.lock;
      let depth = Queue.length t.conns in
      Mutex.unlock t.lock;
      float_of_int depth);
  (* One domain at a time: when the runtime runs out of domains (OCaml 5.1
     stops at 128), the ones already started are stopped and the socket
     closed before the error escapes. *)
  let spawn f =
    match Domain.spawn f with
    | d -> d
    | exception Failure _ ->
      stop t;
      invalid_arg
        (Printf.sprintf
           "Server.start: the OCaml runtime cannot run %d handler domains \
            and an acceptor"
           config.workers)
  in
  for _ = 1 to config.workers do
    t.handlers <- spawn (fun () -> handler_loop t) :: t.handlers
  done;
  t.acceptor <- Some (spawn (fun () -> acceptor_loop t));
  t

let port t = t.bound_port
