(* The serve workload: `ssdep serve` as a child process with its defaults
   on an ephemeral port, and one generator thread sending POST /evaluate
   on an open-loop schedule with at most two connections in flight. One op
   is one request, timed from the moment it was due. *)

open Storage_model
module Spec = Storage_spec.Spec
module Json = Storage_report.Json
module Whatif = Storage_presets.Whatif
module Baseline = Storage_presets.Baseline
module Candidate = Storage_optimize.Candidate
module Prng = Storage_workload.Prng

(* The offered load: below what one connection can carry here. *)
let rate = 400.
let max_inflight = 2

(* Share of requests carrying a grid design the daemon has never seen. *)
let cold_share = 0.1

(* Requests between two runs of the calibration kernel. *)
let segment = 100

(* --- bodies and their expected responses --- *)

let render design =
  match
    Spec.design_to_string
      ~scenarios:
        [
          ("array failure", Baseline.scenario_array);
          ("site disaster", Baseline.scenario_site);
        ]
      design
  with
  | Ok text -> Some text
  | Error _ -> None

(* What /evaluate answers for [body], computed in this process: the
   daemon promises identity with `ssdep evaluate --file ... --json`. *)
let respond body =
  match (Spec.design_of_string body, Spec.scenarios_of_string body) with
  | Ok design, Ok scenarios ->
    Json.to_string_pretty
      (Json_output.reports
         (List.map (fun (n, s) -> (n, Evaluate.run design s)) scenarios))
    ^ "\n"
  | Error e, _ | _, Error e -> failwith ("serve body does not parse: " ^ e)

type body = { text : string; expected : string }

let body text = { text; expected = respond text }

(* The hot set: the seven Table 7 designs. *)
let hot () =
  Array.of_list (List.filter_map (fun (_, d) -> Option.map body (render d)) Whatif.all)

(* [n] distinct grid designs, in an order drawn from the seed. *)
let cold rng ~tiny n =
  let grid =
    Array.of_seq
      (Candidate.enumerate (Whatif.search_kit ())
         (Whatif.search_space ~scale:(if tiny then 1 else 3) ()))
  in
  for i = Array.length grid - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let x = grid.(i) in
    grid.(i) <- grid.(j);
    grid.(j) <- x
  done;
  Array.to_list grid
  |> List.filter_map render
  |> List.filteri (fun i _ -> i < n)
  |> List.map body |> Array.of_list

let request_bytes meth path body =
  Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
    meth path (String.length body) body

(* --- the daemon --- *)

type daemon = { pid : int; out : in_channel; port : int }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let read_all fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    let got = Unix.read fd chunk 0 (Bytes.length chunk) in
    if got > 0 then begin
      Buffer.add_subbytes buf chunk 0 got;
      go ()
    end
  in
  go ();
  Buffer.contents buf

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* (status, body) of a raw HTTP/1.1 response. *)
let parse_response raw =
  let status =
    if String.length raw >= 12 then
      Option.value ~default:0 (int_of_string_opt (String.sub raw 9 3))
    else 0
  in
  let rec find i =
    if i + 4 > String.length raw then ""
    else if String.sub raw i 4 = "\r\n\r\n" then
      String.sub raw (i + 4) (String.length raw - i - 4)
    else find (i + 1)
  in
  (status, find 0)

(* One blocking request (probes and /stats). *)
let request port meth path body =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      write_all fd (request_bytes meth path body) 0;
      parse_response (read_all fd))

let healthy port =
  match request port "GET" "/healthz" "" with
  | 200, _ -> true
  | _ -> false
  | exception Unix.Unix_error _ -> false

(* SIGTERM, then wait for the drain message, EOF and the exit status. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  (try ignore (In_channel.input_all d.out) with Sys_error _ -> ());
  close_in_noerr d.out;
  match Unix.waitpid [] d.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> prerr_endline "perfbench: ssdep serve did not exit cleanly"

let spawn ssdep =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process ssdep [| ssdep; "serve"; "--port"; "0" |] Unix.stdin w
      Unix.stderr
  in
  Unix.close w;
  let out = Unix.in_channel_of_descr r in
  let port =
    match input_line out with
    | line -> Scanf.sscanf line "listening on http://127.0.0.1:%d" Fun.id
    | exception End_of_file ->
      close_in_noerr out;
      ignore (Unix.waitpid [] pid);
      failwith "ssdep serve exited before listening"
  in
  let d = { pid; out; port } in
  let deadline = Host.now () +. 10. in
  let rec wait () =
    if not (healthy port) then
      if Host.now () > deadline then begin
        stop d;
        failwith "ssdep serve did not answer /healthz within 10 s"
      end
      else begin
        Unix.sleepf 0.001;
        wait ()
      end
  in
  wait ();
  d

(* A value from the daemon's /stats JSON: the number after ["key": ] (a
   counter), or after the ["seconds": ] inside ["key": {...}] (a timer). *)
let stat stats key ~timer =
  let find_from i pat =
    let n = String.length pat in
    let rec go i =
      if i + n > String.length stats then failwith ("/stats lacks " ^ key)
      else if String.sub stats i n = pat then i + n
      else go (i + 1)
    in
    go i
  in
  let i = find_from 0 (Printf.sprintf "%S: " key) in
  let i = if timer then find_from i "\"seconds\": " else i in
  let j = ref i in
  while
    !j < String.length stats
    && (match stats.[!j] with
       | '0' .. '9' | '.' | '-' | 'e' | 'E' | '+' -> true
       | _ -> false)
  do
    incr j
  done;
  float_of_string (String.sub stats i (!j - i))

(* --- the open-loop generator --- *)

type timing = {
  due : float;
  start : float;  (** connect began *)
  connected : float;
  written : float;
  finished : float;  (** response read to EOF *)
  ok : bool;
}

type conn = {
  fd : Unix.file_descr;
  index : int;
  c_due : float;
  c_start : float;
  c_connected : float;
  c_written : float;
  buf : Buffer.t;
}

(* Send [bodies] at [rate] from now on, each when due or as soon as one of
   the [max_inflight] connections frees up. Each response is checked
   against its expected body after its finish time is taken, outside the
   timed region. Returns the timings in request order and the peak
   in-flight count. *)
let traffic ~port (bodies : body array) =
  let n = Array.length bodies in
  let t0 = Host.now () +. 0.0005 in
  let due i = t0 +. (float_of_int i /. rate) in
  let requests = Array.map (fun b -> request_bytes "POST" "/evaluate" b.text) bodies in
  let timings = Array.make n None in
  let next = ref 0 and inflight = ref [] and done_ = ref 0 and peak = ref 0 in
  let chunk = Bytes.create 65536 in
  let finish c raw =
    let finished = Host.now () in
    Unix.close c.fd;
    inflight := List.filter (fun c' -> c'.fd != c.fd) !inflight;
    incr done_;
    let status, resp = parse_response raw in
    timings.(c.index) <-
      Some
        {
          due = c.c_due;
          start = c.c_start;
          connected = c.c_connected;
          written = c.c_written;
          finished;
          ok = status = 200 && resp = bodies.(c.index).expected;
        }
  in
  while !done_ < n do
    while
      !next < n && List.length !inflight < max_inflight && due !next <= Host.now ()
    do
      let i = !next in
      incr next;
      let start = Host.now () in
      let fd = connect port in
      let connected = Host.now () in
      write_all fd requests.(i) 0;
      let written = Host.now () in
      inflight :=
        {
          fd;
          index = i;
          c_due = due i;
          c_start = start;
          c_connected = connected;
          c_written = written;
          buf = Buffer.create 4096;
        }
        :: !inflight;
      peak := Int.max !peak (List.length !inflight)
    done;
    let timeout =
      if !next < n && List.length !inflight < max_inflight then
        Float.max 0. (due !next -. Host.now ())
      else 0.05
    in
    if !inflight = [] then (if timeout > 0. then Unix.sleepf timeout)
    else (
      match Unix.select (List.map (fun c -> c.fd) !inflight) [] [] timeout with
      | readable, _, _ ->
        List.iter
          (fun fd ->
            let c = List.find (fun c -> c.fd == fd) !inflight in
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 -> finish c (Buffer.contents c.buf)
            | got -> Buffer.add_subbytes c.buf chunk 0 got
            | exception Unix.Unix_error _ -> finish c "")
          readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    (* A request left unanswered for 10 s fails. *)
    List.iter
      (fun c -> if Host.now () -. c.c_start > 10. then finish c "")
      !inflight
  done;
  (Array.map Option.get timings, !peak)

(* Segments of traffic, each between two kernel runs, until [seconds]
   have elapsed. Returns every request's timing with the kernel time of its
   segment and its body; each segment's service time per request in kernel
   units (the daemon's serve.request_seconds timer over its request count,
   from /stats read between segments); and the peak in-flight count. *)
let segments ~port ~seconds (next_bodies : unit -> body array) =
  let t_end = Host.now () +. seconds in
  let stats () = snd (request port "GET" "/stats" "") in
  let served s =
    ( stat s "serve.request_seconds" ~timer:true,
      stat s "serve.requests" ~timer:false )
  in
  let rec go acc service peak (busy0, count0) =
    if acc <> [] && Host.now () >= t_end then
      (List.concat (List.rev acc), service, peak)
    else begin
      let c0 = Host.cal () in
      let bodies = next_bodies () in
      let timings, p = traffic ~port bodies in
      let c1 = Host.cal () in
      let cal = (c0 +. c1) /. 2. in
      let busy1, count1 = served (stats ()) in
      go
        (List.combine (Array.to_list timings) (Array.to_list bodies)
         |> List.map (fun (t, b) -> (t, cal, b))
         |> fun l -> l :: acc)
        (((busy1 -. busy0) /. (count1 -. count0) /. cal) :: service)
        (Int.max peak p) (busy1, count1)
    end
  in
  go [] [] 0 (served (stats ()))

let sample (t, cal, _) =
  {
    Bench.wall = t.finished -. t.due;
    cpu = 0.;
    cal;
    ok = t.ok;
    minor_words = 0.;
    promoted_words = 0.;
    major_collections = 0;
  }

(* --- the traced replay of the handler's layers --- *)

(* The /evaluate handler's layers, in this process, on one body: parse,
   evaluate through a cache, render. *)
let replay sp cache text =
  let design, scenarios =
    Spans.span sp "spec.parse" (fun () ->
        match (Spec.design_of_string text, Spec.scenarios_of_string text) with
        | Ok d, Ok s -> (d, s)
        | Error e, _ | _, Error e -> failwith e)
  in
  let named =
    Spans.span sp "model.cache" (fun () ->
        List.map (fun (n, s) -> (n, Eval_cache.run cache design s)) scenarios)
  in
  Spans.span sp "report.render" (fun () ->
      Json.to_string_pretty (Json_output.reports named) ^ "\n")

(* --- the workload --- *)

let run (cfg : Bench.config) =
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) in
  (* Inputs (excluded from set-up time): the hot bodies, enough fresh grid
     designs for the whole run, and every expected response. *)
  let hot = hot () in
  let expected_requests = int_of_float (cfg.seconds *. rate *. 1.2) + segment in
  let cold = cold rng ~tiny:cfg.tiny (int_of_float (float_of_int expected_requests *. cold_share)) in
  let cold_next = ref 0 in
  let next_body () =
    if Prng.float rng < cold_share && !cold_next < Array.length cold then begin
      incr cold_next;
      cold.(!cold_next - 1)
    end
    else hot.(Prng.int rng (Array.length hot))
  in
  let next_bodies () = Array.init segment (fun _ -> next_body ()) in
  (* Set-up: spawn the daemon until /healthz answers, nine times (a spawn
     takes a few milliseconds, mostly process and thread start-up, which
     the host's scheduling makes noisy); the last one serves the traffic. *)
  let setup_s, daemon = Bench.setups ~discard:stop 9 (fun () -> spawn cfg.ssdep) in
  Fun.protect ~finally:(fun () -> stop daemon) @@ fun () ->
  let port = daemon.port in
  let cpu0 = Host.cpu_of_pid daemon.pid in
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let untraced, service, peak = segments ~port ~seconds next_bodies in
  let cpu = Host.cpu_of_pid daemon.pid -. cpu0 in
  let samples = List.map sample untraced in
  let n = float_of_int (List.length samples) in
  let attempted = List.length samples in
  let failed = Bench.failures samples in
  let cal = Host.median (List.map (fun s -> s.Bench.cal) samples) in
  let units = Bench.cal_units samples in
  if not cfg.trace then
    {
      Bench.attempted;
      failed;
      metrics =
        [
          Bench.m "setup_s" "s" setup_s;
          Bench.m "op_cal_p50" "kernel" (Host.median service);
          Bench.m "cpu_cal_per_op" "kernel" (cpu /. n /. cal);
          Bench.m "peak_rss_mb" "MiB" (Host.peak_rss_mb (string_of_int daemon.pid));
        ];
      diagnostics =
        Bench.m "client.latency_cal_p50" "kernel" (Host.median units)
        :: Bench.m "host.cpu_ms_per_op" "ms" (cpu /. n *. 1e3)
        :: List.filter
             (fun x -> x.Bench.name <> "host.cpu_ms_per_op")
             (Bench.diagnostics ~batch:false samples);
      notes =
        Printf.sprintf "peak in flight: %d" peak
        :: Bench.tail_note ~what:"requests" ~q:0.99 units;
    }
  else begin
    let stats () = snd (request port "GET" "/stats" "") in
    let s0 = stats () in
    let traced, _, _ = segments ~port ~seconds next_bodies in
    let s1 = stats () in
    let delta key ~timer = stat s1 key ~timer -. stat s0 key ~timer in
    let sp = Spans.create () in
    List.iteri
      (fun i (t, _, _) ->
        Spans.set_op sp (i + 1);
        Spans.completed sp ~name:"request" ~start:t.due ~stop:t.finished
          [
            ("client.wait", t.due, t.start);
            ("client.connect", t.start, t.connected);
            ("client.send", t.connected, t.written);
            ("client.response", t.written, t.finished);
          ])
      traced;
    let traced_samples = List.map sample traced in
    let round_trips =
      Host.sum (List.map (fun (t, _, _) -> t.finished -. t.start) traced)
    in
    (* The handler's layers replayed in this process on the traced
       requests' bodies; each replayed response must be the one the daemon
       sent (which the traffic already compared with [respond]). *)
    let gc = Spans.start_gc () in
    let gc0 = Spans.gc_seconds gc in
    let cache = Eval_cache.create () in
    let replay_t0 = Host.now () in
    let replay_ok =
      List.for_all
        (fun (t, _, b) -> t.ok && replay sp cache b.text = b.expected)
        traced
    in
    let replay_time = Host.now () -. replay_t0 in
    let gc_time = Spans.gc_seconds gc -. gc0 in
    let handler = delta "serve.request_seconds" ~timer:true in
    let requests = delta "serve.requests" ~timer:false in
    let hits = delta "memo.hits" ~timer:false in
    let misses = delta "memo.misses" ~timer:false in
    let nt = List.length traced in
    let file =
      Filename.concat cfg.out (Printf.sprintf "trace-serve-%d.json" cfg.seed)
    in
    Spans.write sp file;
    let share name = Host.ratio (Spans.self_time sp name) round_trips in
    let ms xs = List.map (fun x -> x *. 1e3) xs in
    {
      Bench.attempted = attempted + nt;
      failed =
        failed + Bench.failures traced_samples
        (* The daemon counts the /stats requests too: the one that took
           the second snapshot, and one before and after each segment. *)
        + (if replay_ok && int_of_float requests = nt + (nt / segment) + 2 then 0
           else 1);
      metrics =
        Bench.per_layer
          ([
             Bench.m "serve.requests" "count" requests;
             Bench.m "serve.rejected_busy" "count"
               (delta "serve.rejected_busy" ~timer:false);
             Bench.m "serve.bad_requests" "count"
               (delta "serve.bad_requests" ~timer:false);
             Bench.m "serve.errors" "count" (delta "serve.errors" ~timer:false);
             Bench.m "serve.handler.share" "ratio" (Host.ratio handler round_trips);
             Bench.m "serve.transport.share" "ratio"
               (1. -. Host.ratio handler round_trips);
             Bench.m "spec.parse.share" "ratio" (share "spec.parse");
             Bench.m "model.cache.share" "ratio" (share "model.cache");
             Bench.m "report.render.share" "ratio" (share "report.render");
             Bench.m "model.cache.hit_ratio" "ratio" (Host.ratio hits (hits +. misses));
             Bench.m "client.latency_cal_p50" "kernel" (Host.median units);
             Bench.m "client.late_ms_p99" "ms"
               (Host.percentile (ms (List.map (fun (t, _, _) -> t.start -. t.due) untraced)) 0.99);
             Bench.m "client.inflight_max" "count" (float_of_int peak);
             Bench.m "gc.share" "ratio" (Host.ratio gc_time replay_time);
             Bench.m "trace.overhead" "ratio"
               (Host.median (Bench.cal_units traced_samples) /. Host.median units -. 1.);
             Bench.m "trace.coverage" "ratio"
               (Host.ratio
                  (Host.sum
                     (List.map (Spans.self_time sp)
                        [ "client.wait"; "client.connect"; "client.send"; "client.response" ]))
                  (Host.sum (List.map (fun (t, _, _) -> t.finished -. t.due) traced)));
             Bench.m "host.cpu_ms_per_op" "ms" (cpu /. n *. 1e3);
           ]
          @ List.filter
              (fun x -> x.Bench.name <> "host.cpu_ms_per_op")
              (Bench.diagnostics ~batch:false samples));
      diagnostics = [];
      notes = [ "trace written to " ^ file ];
    }
  end
