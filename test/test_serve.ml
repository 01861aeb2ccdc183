(* The evaluation service: endpoint correctness (responses byte-identical
   to the CLI's --json output), protocol robustness under malformed and
   seeded-fuzz request payloads, deterministic back-pressure at the
   admission queue, and graceful SIGTERM drain of the real binary. *)

open Storage_model
open Storage_presets
module Server = Storage_serve.Server
module Spec = Storage_spec.Spec
module Prng = Storage_workload.Prng

let t name f = Alcotest.test_case name `Quick f

(* --- a tiny raw-socket client (one request per connection) --- *)

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let send_all fd s =
  let bytes = Bytes.of_string s in
  let n = Bytes.length bytes in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd bytes !off (n - !off)
  done

let recv_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 4096 with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes buf chunk 0 n;
      go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ();
  Buffer.contents buf

(* Send a raw payload, optionally half-closing the write side (so the
   server sees EOF instead of waiting out its read timeout), and return
   the full raw response. *)
let raw_roundtrip ?(eof = true) ~port payload =
  let fd = connect port in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      send_all fd payload;
      (* The server may have answered-and-closed already (a 429 from the
         acceptor); the half-close is then moot. *)
      (if eof then
         try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
      recv_all fd)

let status_of raw =
  if String.length raw >= 12 && String.sub raw 0 9 = "HTTP/1.1 " then
    int_of_string_opt (String.sub raw 9 3)
  else None

let body_of raw =
  let n = String.length raw in
  let rec find i =
    if i + 4 > n then ""
    else if String.sub raw i 4 = "\r\n\r\n" then
      String.sub raw (i + 4) (n - i - 4)
    else find (i + 1)
  in
  find 0

let request ~port ~meth ~path body =
  let raw =
    raw_roundtrip ~eof:false ~port
      (Printf.sprintf "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: \
                       %d\r\n\r\n%s"
         meth path (String.length body) body)
  in
  (status_of raw, body_of raw)

(* --- server fixture --- *)

let small_config =
  {
    Server.port = 0;
    workers = 2;
    queue_capacity = 8;
    max_body = 64 * 1024;
    timeout = 5.;
  }

(* [Server.start] flips the process-wide obs registry on; later suites
   assume the default-off state, so every fixture switches it back. *)
let with_server ?(config = small_config) f =
  let engine = Storage_engine.create () in
  let server = Server.start ~config engine in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Storage_engine.shutdown engine;
      Storage_obs.disable ())
    (fun () -> f (Server.port server))

(* The baseline case study with its two hardware-failure scenarios, in
   the design language — the body every correctness test posts. *)
let design_text =
  lazy
    (match
       Spec.design_to_string
         ~scenarios:
           [
             ("array failure", Baseline.scenario_array);
             ("site disaster", Baseline.scenario_site);
           ]
         Baseline.design
     with
    | Ok text -> text
    | Error e -> Alcotest.failf "cannot render baseline design: %s" e)

(* What `ssdep evaluate --file <design_text> --json` prints: parse the
   same text back (the server sees only the text, not our Design.t) and
   evaluate. *)
let expected_evaluate_output () =
  let text = Lazy.force design_text in
  let design =
    match Spec.design_of_string text with
    | Ok d -> d
    | Error e -> Alcotest.failf "baseline text does not parse: %s" e
  in
  let scenarios =
    match Spec.scenarios_of_string text with
    | Ok s -> s
    | Error e -> Alcotest.failf "baseline scenarios do not parse: %s" e
  in
  let named =
    List.map (fun (name, scenario) -> (name, Evaluate.run design scenario))
      scenarios
  in
  Storage_report.Json.to_string_pretty (Json_output.reports named) ^ "\n"

(* --- endpoint correctness --- *)

let test_healthz () =
  with_server @@ fun port ->
  let status, body = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "status" (Some 200) status;
  Alcotest.(check string) "body" "ok\n" body

let test_evaluate_byte_identical () =
  with_server @@ fun port ->
  let expected = expected_evaluate_output () in
  let post () =
    request ~port ~meth:"POST" ~path:"/evaluate" (Lazy.force design_text)
  in
  let status, body = post () in
  Alcotest.(check (option int)) "cold status" (Some 200) status;
  Alcotest.(check bool) "cold response byte-identical to the CLI" true
    (String.equal expected body);
  (* The daemon keeps no evaluation cache: a repeated body is evaluated
     again, and must not change a byte. *)
  let status, body = post () in
  Alcotest.(check (option int)) "warm status" (Some 200) status;
  Alcotest.(check bool) "warm response byte-identical to the CLI" true
    (String.equal expected body)

let test_lint_and_stats () =
  with_server @@ fun port ->
  let status, body =
    request ~port ~meth:"POST" ~path:"/lint" (Lazy.force design_text)
  in
  Alcotest.(check (option int)) "lint status" (Some 200) status;
  Alcotest.(check bool) "lint response is a JSON object" true
    (String.length body > 0 && body.[0] = '{');
  let status, body = request ~port ~meth:"GET" ~path:"/stats" "" in
  Alcotest.(check (option int)) "stats status" (Some 200) status;
  Alcotest.(check bool) "stats counts the requests served" true
    (Helpers.contains body "\"serve.requests\"")

(* Concurrent repeats of one body: each handler domain evaluates its own
   copy, and every answer is the CLI's. *)
let test_concurrent_clients_identical () =
  with_server @@ fun port ->
  let expected = expected_evaluate_output () in
  let clients = 4 and per_client = 8 in
  let domains =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            List.init per_client (fun _ ->
                request ~port ~meth:"POST" ~path:"/evaluate"
                  (Lazy.force design_text))))
  in
  let responses = List.concat_map Domain.join domains in
  Alcotest.(check int) "every request answered" (clients * per_client)
    (List.length responses);
  List.iter
    (fun (status, body) ->
      Alcotest.(check (option int)) "status" (Some 200) status;
      Alcotest.(check bool) "cache-warm response byte-identical" true
        (String.equal expected body))
    responses

(* --- protocol robustness --- *)

(* A design whose backup level leaves [prop] at its zero default:
   §3.2.3 would size its bandwidth as copy size / 0. *)
let zero_window_design =
  String.concat "\n"
    [
      "[workload]"; "name = tiny"; "data_capacity = 100 GiB";
      "avg_access_rate = 1 MiB/s"; "avg_update_rate = 500 KiB/s";
      "burst_multiplier = 4"; "batch = 1min: 400 KiB/s, 12hr: 200 KiB/s";
      "[device box]"; "location = r/s/b"; "capacity_slots = 16 x 100 GiB";
      "bandwidth_slots = 8 x 50 MiB/s"; "enclosure_bandwidth = 300 MiB/s";
      "[level 0]"; "technique = primary"; "device = box"; "[level 1]";
      "technique = backup"; "device = box"; "acc = 1wk"; "retention = 2";
      "[business]"; "outage_penalty = $1k/hr"; "loss_penalty = $1k/hr";
      "[scenario oops]"; "scope = object"; "";
    ]

let post path body =
  Printf.sprintf "POST %s HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s" path
    (String.length body) body

(* Every payload here is wrong in a different way; each must come back
   as a well-formed HTTP error — never a hang, never a dead server. *)
let malformed_cases =
  [
    ("empty request", "", 400);
    ("garbage request line", "GARBAGE\r\n\r\n", 400);
    ("missing content-length", "POST /evaluate HTTP/1.1\r\n\r\n", 411);
    ( "malformed content-length",
      "POST /evaluate HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
      400 );
    ( "oversized body",
      "POST /evaluate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
      413 );
    ( "chunked transfer coding",
      "POST /evaluate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
      501 );
    ( "truncated body",
      "POST /evaluate HTTP/1.1\r\nContent-Length: 100\r\n\r\nonly this",
      400 );
    ( "invalid design body",
      "POST /evaluate HTTP/1.1\r\nContent-Length: 12\r\n\r\nnot a design",
      400 );
    ("unknown endpoint", "GET /nope HTTP/1.1\r\n\r\n", 404);
    ( "wrong method",
      "DELETE /evaluate HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
      405 );
    ( "bad optimize parameter",
      "GET /optimize?grid_scale=banana HTTP/1.1\r\n\r\n",
      400 );
    ("infinite objective", "GET /optimize?rto=inf HTTP/1.1\r\n\r\n", 400);
    ( "objective overflowing a duration",
      "GET /optimize?rto=1e308 HTTP/1.1\r\n\r\n",
      400 );
    ( "zero backup propagation window (/evaluate)",
      post "/evaluate" zero_window_design,
      400 );
    ( "zero backup propagation window (/lint)",
      post "/lint" zero_window_design,
      400 );
    ( "malformed [scenario] section (/lint)",
      post "/lint"
        (Lazy.force design_text ^ "\n[scenario broken]\nscope = galaxy far\n"),
      400 );
  ]

(* The worker-loop exception barrier: handler exceptions become a 500,
   but the fatal runtime conditions re-raise — a wedged runtime must not
   keep serving, and Ctrl-C must keep working (the bug this regresses:
   the old catch-all turned Out_of_memory into an HTTP response). *)
let test_guard_route_fatal_exceptions () =
  let resp = Server.guard_route (fun () -> Storage_serve.Http.ok_text "fine") in
  Alcotest.(check int) "pass-through status" 200 resp.Storage_serve.Http.status;
  let resp = Server.guard_route (fun () -> failwith "handler bug") in
  Alcotest.(check int) "handler exception becomes 500" 500
    resp.Storage_serve.Http.status;
  List.iter
    (fun (name, exn) ->
      Alcotest.check_raises name exn (fun () ->
          ignore (Server.guard_route (fun () -> raise exn))))
    [
      ("Out_of_memory re-raises", Out_of_memory);
      ("Stack_overflow re-raises", Stack_overflow);
      ("Sys.Break re-raises", Sys.Break);
    ]

let test_malformed_requests_isolated () =
  with_server @@ fun port ->
  List.iter
    (fun (name, payload, expected_status) ->
      let raw = raw_roundtrip ~port payload in
      Alcotest.(check (option int)) name (Some expected_status)
        (status_of raw))
    malformed_cases;
  (* Header block past the reader's bound. *)
  let huge_header =
    "GET /healthz HTTP/1.1\r\n"
    ^ String.concat "" (List.init 4000 (fun i -> Printf.sprintf "X-%d: y\r\n" i))
    ^ "\r\n"
  in
  Alcotest.(check (option int)) "oversized header block" (Some 431)
    (status_of (raw_roundtrip ~port huge_header));
  (* The daemon outlived all of it. *)
  let status, body = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "alive after abuse" (Some 200) status;
  Alcotest.(check string) "healthz body" "ok\n" body

(* Seeded fuzz: random byte soup, both as raw payloads (exercising the
   HTTP reader) and as well-framed /evaluate bodies (exercising the
   design parser behind a valid request). Every response must be a
   well-formed HTTP error status; the server answers the probe after
   every case. *)
let test_fuzzed_requests () =
  with_server @@ fun port ->
  let rng = Prng.create ~seed:0x5e7feedL in
  let random_string max_len =
    let len = 1 + Prng.int rng max_len in
    String.init len (fun _ -> Char.chr (Prng.int rng 256))
  in
  for case = 1 to 25 do
    let payload = random_string 512 in
    let raw = raw_roundtrip ~port payload in
    (match status_of raw with
    | Some s when s >= 400 && s < 600 -> ()
    | Some s -> Alcotest.failf "fuzz case %d: unexpected status %d" case s
    | None ->
      Alcotest.failf "fuzz case %d: response is not well-formed HTTP" case);
    let status, _ =
      request ~port ~meth:"POST" ~path:"/evaluate" (random_string 2048)
    in
    match status with
    | Some 400 -> ()
    | Some s -> Alcotest.failf "fuzz body %d: expected 400, got %d" case s
    | None -> Alcotest.failf "fuzz body %d: response not well-formed" case
  done;
  let status, _ = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "alive after fuzz" (Some 200) status

(* The kernel keeps socket timeouts as a timeval: a value it cannot
   hold fails at start-up, before any client connects, instead of
   killing the acceptor on the first connection. *)
let test_unholdable_timeouts_rejected () =
  let engine = Storage_engine.create () in
  List.iter
    (fun timeout ->
      Helpers.check_raises_invalid (Printf.sprintf "timeout %g" timeout)
        (fun () ->
          Server.stop
            (Server.start ~config:{ small_config with Server.timeout } engine)))
    [ Float.nan; Float.infinity; 2147483648.; 1e-9 ];
  (* The largest value the socket layer holds still serves. *)
  with_server ~config:{ small_config with Server.timeout = 2147483647. }
  @@ fun port ->
  let status, _ = request ~port ~meth:"GET" ~path:"/healthz" "" in
  Alcotest.(check (option int)) "2^31 - 1 s serves" (Some 200) status

(* --- back-pressure --- *)

let test_back_pressure_rejects_with_429 () =
  (* One worker, a one-slot queue, a short read timeout: a silent
     connection pins the worker, a second fills the queue, and every
     connection after that must be answered 429 immediately by the
     acceptor — bounded admission, not unbounded queueing. *)
  let config =
    {
      Server.port = 0;
      workers = 1;
      queue_capacity = 1;
      max_body = 64 * 1024;
      timeout = 2.;
    }
  in
  with_server ~config @@ fun port ->
  (* Sequence the set-up so it cannot race: park [pinned] first and wait
     until the worker has surely dequeued it, THEN fill the one queue
     slot with [queued]. Only after both settles is every further
     connection guaranteed to overflow. *)
  let pinned = connect port in
  Unix.sleepf 0.3;
  let queued = connect port in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ pinned; queued ])
    (fun () ->
      Unix.sleepf 0.3;
      let overflow_1 = raw_roundtrip ~port "GET /healthz HTTP/1.1\r\n\r\n" in
      let overflow_2 = raw_roundtrip ~port "GET /healthz HTTP/1.1\r\n\r\n" in
      Alcotest.(check (option int)) "first overflow rejected busy" (Some 429)
        (status_of overflow_1);
      Alcotest.(check (option int)) "second overflow rejected busy" (Some 429)
        (status_of overflow_2));
  (* Closing the client fds EOFs the worker out of its pin; the server
     must accept again shortly after. *)
  let rec probe tries =
    let status, _ = request ~port ~meth:"GET" ~path:"/healthz" "" in
    if status = Some 200 then status
    else if tries <= 0 then status
    else (
      Unix.sleepf 0.2;
      probe (tries - 1))
  in
  Alcotest.(check (option int)) "accepts again after drain" (Some 200)
    (probe 15)

(* --- the real binary: drain on SIGTERM, CLI output identity --- *)

let find_ssdep () =
  let candidates =
    (match Sys.getenv_opt "SSDEP_BIN" with Some p -> [ p ] | None -> [])
    (* Under `dune runtest` the cwd is _build/default/test and the
       installed binary sits in _build/install/default/bin; under
       `dune exec` the cwd is the workspace root. *)
    @ [ "../../install/default/bin/ssdep"; "_build/install/default/bin/ssdep" ]
  in
  List.find_opt Sys.file_exists candidates

(* What the CLI prints for [args]; a non-zero exit fails the test. *)
let cli_output bin args =
  let ic = Unix.open_process_args_in bin (Array.of_list (bin :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | _ -> Alcotest.failf "ssdep %s failed" (String.concat " " args)

let test_real_binary_drains_on_sigterm () =
  match find_ssdep () with
  | None -> Alcotest.fail "ssdep binary not found (SSDEP_BIN unset?)"
  | Some bin ->
    let out_read, out_write = Unix.pipe ~cloexec:false () in
    let pid =
      Unix.create_process bin
        [| bin; "serve"; "--port"; "0"; "--workers"; "2" |]
        Unix.stdin out_write Unix.stderr
    in
    Unix.close out_write;
    let ic = Unix.in_channel_of_descr out_read in
    Fun.protect
      ~finally:(fun () ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
        try close_in ic with Sys_error _ -> ())
      (fun () ->
        let first_line = input_line ic in
        let port =
          match String.rindex_opt first_line ':' with
          | Some i ->
            int_of_string
              (String.sub first_line (i + 1)
                 (String.length first_line - i - 1))
          | None -> Alcotest.failf "unexpected banner %S" first_line
        in
        (* The daemon's answer matches the CLI's byte for byte. *)
        let status, body =
          request ~port ~meth:"POST" ~path:"/evaluate"
            (Lazy.force design_text)
        in
        Alcotest.(check (option int)) "daemon evaluates" (Some 200) status;
        let tmp = Filename.temp_file "ssdep_serve_test" ".ssdep" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            Out_channel.with_open_text tmp (fun oc ->
                output_string oc (Lazy.force design_text));
            let cli =
              Unix.open_process_in
                (Printf.sprintf "%s evaluate --file %s --json"
                   (Filename.quote bin) (Filename.quote tmp))
            in
            let cli_out = In_channel.input_all cli in
            (match Unix.close_process_in cli with
            | Unix.WEXITED 0 -> ()
            | _ -> Alcotest.fail "ssdep evaluate failed");
            Alcotest.(check bool)
              "daemon response byte-identical to `ssdep evaluate --json`"
              true
              (String.equal cli_out body));
        (* /optimize answers what `ssdep optimize` prints with the same
           objectives, byte for byte. *)
        List.iter
          (fun (query, args) ->
            let status, body =
              request ~port ~meth:"GET" ~path:("/optimize" ^ query) ""
            in
            Alcotest.(check (option int)) ("/optimize" ^ query) (Some 200)
              status;
            Alcotest.(check string)
              ("/optimize" ^ query ^ " byte-identical to `ssdep optimize`")
              (cli_output bin ("optimize" :: args))
              body)
          [
            ("?rto=12&rpo=1&top_k=3",
             [ "--rto"; "12"; "--rpo"; "1"; "--top-k"; "3" ]);
            ("", []);
          ];
        (* SIGTERM: graceful drain, clean exit, the drain banner. *)
        Unix.kill pid Sys.sigterm;
        let rest = In_channel.input_all ic in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _, status ->
          Alcotest.failf "daemon did not exit cleanly: %s"
            (match status with
            | Unix.WEXITED n -> Printf.sprintf "exit %d" n
            | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
            | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n));
        Alcotest.(check bool) "drain banner printed" true
          (Helpers.contains rest "drained"))

(* `serve ARGS` is a configuration error: one line and exit 2, before
   the banner, within 30 s (a daemon stuck on the way out fails here
   rather than hanging the suite). *)
let check_rejected_before_listening bin args =
  let label = String.concat " " args in
  let out_read, out_write = Unix.pipe ~cloexec:false () in
  let err_read, err_write = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process bin
      (Array.of_list ([ bin; "serve"; "--port"; "0" ] @ args))
      Unix.stdin out_write err_write
  in
  Unix.close out_write;
  Unix.close err_write;
  let out = Unix.in_channel_of_descr out_read in
  let err = Unix.in_channel_of_descr err_read in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
      close_in_noerr out;
      close_in_noerr err)
    (fun () ->
      (match Unix.select [ out_read ] [] [] 30. with
      | [], _, _ -> Alcotest.failf "%s: no exit and no banner in 30 s" label
      | _ :: _, _, _ -> ());
      (* A daemon that started prints its banner and keeps running:
         read one line, not to end of file. *)
      (match In_channel.input_line out with
      | None -> ()
      | Some line -> Alcotest.failf "%s: daemon started (%S)" label line);
      let stderr_lines =
        String.split_on_char '\n' (String.trim (In_channel.input_all err))
      in
      Alcotest.(check int) (label ^ ": one error line") 1
        (List.length stderr_lines);
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 2 -> ()
      | _, _ -> Alcotest.failf "%s: expected exit 2" label)

let with_ssdep f =
  match find_ssdep () with
  | None -> Alcotest.fail "ssdep binary not found (SSDEP_BIN unset?)"
  | Some bin -> f bin

(* One counter of a /stats body, which prints one ["name": value] per
   line. *)
let counter body name =
  List.find_map
    (fun line ->
      match Scanf.sscanf_opt (String.trim line) "%S: %d" (fun k v -> (k, v)) with
      | Some (k, v) when String.equal k name -> Some v
      | Some _ | None -> None)
    (String.split_on_char '\n' body)

(* /evaluate keeps no cache: a body posted again is evaluated again, and
   every answer is `ssdep evaluate --file ... --json` byte for byte. The
   memo counters /stats still lists stay where they were, because no
   memo sits on the request path. *)
let test_evaluate_repeats_reevaluate () =
  with_ssdep @@ fun bin ->
  with_server @@ fun port ->
  let counters () =
    let status, body = request ~port ~meth:"GET" ~path:"/stats" "" in
    Alcotest.(check (option int)) "stats status" (Some 200) status;
    List.map
      (fun name ->
        match counter body name with
        | Some v -> (name, v)
        | None -> Alcotest.failf "/stats lists no %s" name)
      [ "memo.hits"; "memo.misses" ]
  in
  let before = counters () in
  List.iter
    (fun (file, times) ->
      let path = Filename.concat "../examples/designs" file in
      let text = In_channel.with_open_bin path In_channel.input_all in
      let cli = cli_output bin [ "evaluate"; "--file"; path; "--json" ] in
      for i = 1 to times do
        let status, body = request ~port ~meth:"POST" ~path:"/evaluate" text in
        let label = Printf.sprintf "%s, request %d" file i in
        Alcotest.(check (option int)) (label ^ ": status") (Some 200) status;
        Alcotest.(check string) (label ^ ": the CLI's bytes") cli body
      done)
    [ ("baseline.ssdep", 4); ("mail.ssdep", 1) ];
  Alcotest.(check (list (pair string int)))
    "memo counters unchanged" before (counters ())

(* `serve --timeout` values the socket layer cannot hold. *)
let test_real_binary_rejects_unholdable_timeout () =
  with_ssdep @@ fun bin ->
  List.iter
    (fun value -> check_rejected_before_listening bin [ "--timeout"; value ])
    [ "inf"; "nan"; "2147483648" ]

(* More handler domains than the runtime runs (OCaml 5.1 stops at 128). *)
let test_real_binary_rejects_too_many_workers () =
  with_ssdep @@ fun bin ->
  check_rejected_before_listening bin [ "--workers"; "200" ]

(* --- the codec over a socket pair, in this domain --- *)

module Http = Storage_serve.Http

(* Write [payload] into one end of a fresh socket pair (optionally
   half-closing it) and run [f] on the other. A Unix socket buffers far
   more than any payload here, so no second domain is needed. *)
let with_socketpair ?(eof = false) payload f =
  let client, server =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.close client;
      Unix.close server)
    (fun () ->
      send_all client payload;
      if eof then Unix.shutdown client Unix.SHUTDOWN_SEND;
      f ~client ~server)

let post_bytes ?(extra_headers = "") body =
  Printf.sprintf
    "POST /evaluate HTTP/1.1\r\nHost: x\r\n%sContent-Length: %d\r\n\r\n%s"
    extra_headers (String.length body) body

(* The reader starts small and grows to what the request needs: a head
   many times its first buffer, a body arriving over many reads, and
   pipelined bytes past Content-Length (ignored) all read exactly; the
   16 KiB header bound and a short body still answer 431 and 400. *)
let test_http_buffers_sized_to_request () =
  let read ?eof payload =
    with_socketpair ?eof payload (fun ~client:_ ~server ->
        Http.read_request ~max_body:(1 lsl 20) server)
  in
  let pad n =
    String.concat ""
      (List.init n (fun i ->
           Printf.sprintf "X-Pad-%d: %s\r\n" i (String.make 40 'p')))
  in
  let body_of what = function
    | Ok (req : Http.request) -> req.Http.body
    | Error (resp : Http.response) ->
      Alcotest.failf "%s: answered %d" what resp.Http.status
  in
  Alcotest.(check string) "10 KiB head" "abc"
    (body_of "10 KiB head" (read (post_bytes ~extra_headers:(pad 180) "abc")));
  let big = String.init 100_000 (fun i -> Char.chr (32 + (i mod 95))) in
  Alcotest.(check string) "100 kB body" big
    (body_of "100 kB body" (read (post_bytes big)));
  Alcotest.(check string) "pipelined bytes ignored" "abc"
    (body_of "pipelined" (read (post_bytes "abc" ^ "GET / HTTP/1.1\r\n\r\n")));
  let status = function
    | Ok _ -> 200
    | Error (resp : Http.response) -> resp.Http.status
  in
  Alcotest.(check int) "head past 16 KiB" 431
    (status (read (post_bytes ~extra_headers:(pad 400) "abc")));
  Alcotest.(check int) "body shorter than Content-Length" 400
    (status
       (read ~eof:true
          "POST /evaluate HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"))

(* --- allocation budgets for the request path --- *)

(* The seven Table 7 designs with the array-failure and site-disaster
   scenarios: perfbench's hot /evaluate bodies. *)
let table7_bodies =
  lazy
    (List.filter_map
       (fun (_, design) ->
         Result.to_option
           (Spec.design_to_string
              ~scenarios:
                [
                  ("array failure", Baseline.scenario_array);
                  ("site disaster", Baseline.scenario_site);
                ]
              design))
       Whatif.all)

let evaluate_body text =
  match Spec.of_string text with
  | Error e -> Alcotest.failf "a Table 7 body does not parse: %s" e
  | Ok (design, scenarios) ->
    let names, scenarios = List.split scenarios in
    Storage_report.Json.to_string_pretty
      (Json_output.reports
         (List.combine names (Evaluate.run_all design scenarios)))
    ^ "\n"

(* Minor-heap words to parse, evaluate and render one /evaluate body,
   averaged over the Table 7 bodies. Allocation is deterministic, unlike
   service time: this fails if the parser goes back to copying every
   line, key and value, assembly to a closure per step, or the renderer
   to a [Printf] per float (before: ~17,300 words per body). *)
let test_evaluate_alloc_budget () =
  let bodies = Lazy.force table7_bodies in
  Alcotest.(check int) "seven bodies" 7 (List.length bodies);
  List.iter (fun b -> ignore (evaluate_body b)) bodies;
  let w0 = Gc.minor_words () in
  List.iter (fun b -> ignore (Sys.opaque_identity (evaluate_body b))) bodies;
  let per_body = (Gc.minor_words () -. w0) /. 7. in
  let budget = 12_600. in
  Printf.printf "%.0f minor words per /evaluate body (budget %.0f)\n" per_body
    budget;
  if per_body > budget then
    Alcotest.failf "%.0f minor words per /evaluate body exceeds %.0f" per_body
      budget

(* Words one Http.read_request + write_response of a Table 7 request
   (~1.7 KB) allocates directly in the major heap, where the handler pays
   for them in major slices. Only the response (head and body in one
   string) needs a block that large; this fails if the reader goes back
   to fixed 16 KiB + 4 KiB buffers (2,560 words before a byte arrives)
   or the writer to a second copy of the response. *)
let test_http_alloc_budget () =
  let text = List.hd (Lazy.force table7_bodies) in
  let response = Http.ok_json (evaluate_body text) in
  let payload = post_bytes text in
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let rounds = 20 in
  let words = ref 0. in
  for _ = 1 to rounds do
    with_socketpair payload (fun ~client ~server ->
        let d0 = direct () in
        (match Http.read_request ~max_body:(1 lsl 20) server with
        | Ok _ -> ()
        | Error resp -> Alcotest.failf "answered %d" resp.Http.status);
        Http.write_response server response;
        words := !words +. (direct () -. d0);
        Unix.shutdown server Unix.SHUTDOWN_SEND;
        Alcotest.(check (option int)) "response" (Some 200)
          (status_of (recv_all client)))
  done;
  let per_request = !words /. float_of_int rounds in
  let budget = 540. in
  Printf.printf
    "%.0f words directly in the major heap per request of %d bytes (budget \
     %.0f)\n"
    per_request (String.length payload) budget;
  if per_request > budget then
    Alcotest.failf
      "%.0f words allocated directly in the major heap per request exceeds %.0f"
      per_request budget

let suite =
  [
    ( "serve.endpoints",
      [
        t "healthz answers" test_healthz;
        t "/evaluate byte-identical to the CLI, warm and cold"
          test_evaluate_byte_identical;
        t "/lint and /stats answer" test_lint_and_stats;
        t "4 concurrent clients, identical cache-warm responses"
          test_concurrent_clients_identical;
        t "/evaluate keeps no cache: repeats re-evaluate, memo counters still"
          test_evaluate_repeats_reevaluate;
      ] );
    ( "serve.robustness",
      [
        t "guard_route: 500 for handler bugs, fatal exceptions re-raise"
          test_guard_route_fatal_exceptions;
        t "malformed requests isolated (one per failure mode)"
          test_malformed_requests_isolated;
        t "seeded fuzz: raw payloads and framed bodies"
          test_fuzzed_requests;
        t "bounded admission queue answers 429"
          test_back_pressure_rejects_with_429;
        t "timeouts the socket layer cannot hold fail at start"
          test_unholdable_timeouts_rejected;
        t "request buffers grow to the request, within the bounds"
          test_http_buffers_sized_to_request;
      ] );
    ( "serve.allocation",
      [
        t "minor words per /evaluate body" test_evaluate_alloc_budget;
        t "major-heap words per request read and answer" test_http_alloc_budget;
      ] );
    ( "serve.binary",
      [
        t "real daemon: CLI identity and SIGTERM drain"
          test_real_binary_drains_on_sigterm;
        t "real daemon: --timeout it cannot hold exits 2 before listening"
          test_real_binary_rejects_unholdable_timeout;
        t "real daemon: --workers it cannot run exits 2 before listening"
          test_real_binary_rejects_too_many_workers;
      ] );
  ]
