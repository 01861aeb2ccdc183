(* The multicore evaluation engine: Pool.map determinism and stress tests,
   Memo/Eval_cache semantics, and property proofs that every parallel entry
   point (search, sensitivity, portfolio, failure-phase sweep) is
   byte-identical to its serial run. *)

open Storage_units
open Storage_model
open Storage_optimize
open Storage_presets
open Storage_parallel
module Engine = Storage_engine

let pool_designs = Test_random_designs.pool
let scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]

(* Structural equality down to the last byte. [No_sharing] makes the bytes
   independent of how values were built; both sides are marshaled only
   after both runs complete, so the designs' fingerprint memos (filled by
   whichever run came first, shared physically by both results) agree. *)
let bytes_of x = Marshal.to_string x [ Marshal.No_sharing ]

let check_same_bytes msg a b =
  Alcotest.(check bool) msg true (String.equal (bytes_of a) (bytes_of b))

(* ------------------------------------------------------------------ *)
(* Pool.map *)

let square x = x * x

let test_map_matches_list_map () =
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i - 3) in
      let expected = List.map square xs in
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "map n=%d jobs=%d" n jobs)
            expected
            (Pool.map ~jobs square xs))
        [ 1; 2; 4; 7 ])
    [ 0; 1; 2; 3; 5; 17; 100 ]

let test_map_jobs_exceed_length () =
  (* More domains than work: every result still lands in its input slot. *)
  let xs = [ 10; 20; 30 ] in
  Alcotest.(check (list int))
    "jobs=8 over 3 elements" (List.map square xs)
    (Pool.map ~jobs:8 square xs)

let test_map_forced_chunks () =
  let xs = List.init 23 Fun.id in
  List.iter
    (fun chunk ->
      Alcotest.(check (list int))
        (Printf.sprintf "chunk=%d" chunk)
        (List.map square xs)
        (Pool.map ~chunk ~jobs:3 square xs))
    [ 1; 2; 23; 100 ]

let test_map_applies_each_input_once () =
  let calls = Atomic.make 0 in
  let xs = List.init 57 Fun.id in
  let ys =
    Pool.map ~jobs:4
      (fun x ->
        Atomic.incr calls;
        x + 1)
      xs
  in
  Alcotest.(check int) "one application per input" 57 (Atomic.get calls);
  Alcotest.(check (list int)) "results" (List.map succ xs) ys

let test_invalid_arguments () =
  Helpers.check_raises_invalid "jobs=0" (fun () ->
      Pool.map ~jobs:0 square [ 1 ]);
  Helpers.check_raises_invalid "jobs=-2" (fun () -> Pool.create ~jobs:(-2));
  Helpers.check_raises_invalid "chunk=0" (fun () ->
      Pool.with_pool ~jobs:2 (fun p -> Pool.map_on ~chunk:0 p square [ 1; 2 ]))

let test_exception_propagation () =
  (* Every element raises. Serially, and with everything in one chunk, the
     smallest-evaluated-index rule is deterministic: index 0. With many
     chunks racing, the winning index can vary, but it is always one of the
     inputs'. *)
  let all_raise i : int = failwith (string_of_int i) in
  let xs = List.init 40 Fun.id in
  (match Pool.map ~jobs:1 all_raise xs with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "serial" "0" msg);
  (match Pool.map ~jobs:4 ~chunk:40 all_raise xs with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "single chunk" "0" msg);
  (match Pool.map ~jobs:4 all_raise xs with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> (
    match int_of_string_opt msg with
    | Some i when i >= 0 && i < 40 -> ()
    | _ -> Alcotest.failf "unexpected failure index %S" msg));
  (* A single raising element: its exception is the one the caller sees. *)
  let one_raises x = if x = 11 then failwith "eleven" else x in
  (match Pool.map ~jobs:4 one_raises (List.init 30 Fun.id) with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "sole failure" "eleven" msg)

let test_pool_survives_batch_failure () =
  (* Cancellation is per-batch: after a failed map_on, the same pool still
     runs clean batches. *)
  Pool.with_pool ~jobs:3 (fun p ->
      (match Pool.map_on p (fun _ -> failwith "boom") [ 1; 2; 3; 4 ] with
      | (_ : int list) -> Alcotest.fail "expected Failure"
      | exception Failure _ -> ());
      let xs = List.init 20 Fun.id in
      Alcotest.(check (list int))
        "pool usable after failure" (List.map square xs)
        (Pool.map_on p square xs))

let test_pool_reuse_many_batches () =
  Pool.with_pool ~jobs:4 (fun p ->
      for round = 1 to 25 do
        let xs = List.init (round * 3) (fun i -> i * round) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map square xs) (Pool.map_on p square xs)
      done)

let test_shutdown_idempotent () =
  let p = Pool.create ~jobs:3 in
  Alcotest.(check int) "size" 3 (Pool.size p);
  Pool.shutdown p;
  Pool.shutdown p

(* A domain that has not run a task yet still shows in the snapshot, as
   0. No other test creates a 9-domain pool, so only this one can have
   registered index 8. *)
let test_domain_counters_registered_on_create () =
  let p = Pool.create ~jobs:9 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  match Storage_obs.snapshot () with
  | Storage_report.Json.Obj fields ->
    Alcotest.(check bool) "pool.domain.8.tasks listed" true
      (List.mem_assoc "pool.domain.8.tasks" fields)
  | _ -> Alcotest.fail "snapshot must be a JSON object"

(* Tasks enqueued while stats are disabled carry [enqueued_at = 0.]. If
   recording turns on before they drain, the queue-wait histogram must
   skip them — naively measuring against timestamp 0 would record an
   epoch-sized wait and wreck every percentile. *)
let test_queue_wait_skips_pre_enable_tasks () =
  let h = Storage_obs.Histogram.make "pool.queue_wait_seconds" in
  Storage_obs.disable ();
  let before = Storage_obs.Histogram.count h in
  Fun.protect ~finally:(fun () -> Storage_obs.disable ()) @@ fun () ->
  Pool.with_pool ~jobs:2 (fun p ->
      (* All chunks are enqueued (with enqueued_at = 0.) before any
         worker runs the function that flips recording on. *)
      let out =
        Pool.map_on ~chunk:1 p
          (fun x ->
            Storage_obs.enable ();
            x * x)
          (List.init 16 Fun.id)
      in
      Alcotest.(check (list int))
        "results unaffected"
        (List.map square (List.init 16 Fun.id))
        out);
  Alcotest.(check int) "no bogus epoch-sized waits recorded" before
    (Storage_obs.Histogram.count h);
  (* With recording on for the whole batch, waits do get observed —
     the guard skips only the sentinel timestamp. *)
  Storage_obs.enable ();
  Pool.with_pool ~jobs:2 (fun p ->
      ignore (Pool.map_on ~chunk:1 p square (List.init 8 Fun.id)));
  Storage_obs.disable ();
  Alcotest.(check bool) "live batches still observed" true
    (Storage_obs.Histogram.count h > before)

(* ------------------------------------------------------------------ *)
(* Pool.map_seq chunked scheduling *)

let seq_of_list xs = List.to_seq xs

let test_map_seq_empty () =
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (list int))
        "empty input, empty output" []
        (List.of_seq (Pool.map_seq p square Seq.empty)))

let test_map_seq_chunk_exceeds_input () =
  (* A chunk far larger than the input degenerates to one task; results
     and order are unchanged. *)
  let xs = List.init 10 Fun.id in
  Pool.with_pool ~jobs:3 (fun p ->
      Alcotest.(check (list int))
        "chunk=1000 over 10 elements" (List.map square xs)
        (List.of_seq (Pool.map_seq ~chunk:1000 p square (seq_of_list xs))))

let test_map_seq_chunk_one_equivalence () =
  (* chunk=1 is one task per element — the pre-batching schedule. It must
     compute exactly what every other granularity computes. *)
  let xs = List.init 137 (fun i -> i - 5) in
  let expected = List.map square xs in
  Pool.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun (label, result) ->
          Alcotest.(check (list int)) label expected (List.of_seq result))
        [
          ("chunk=1", Pool.map_seq ~chunk:1 p square (seq_of_list xs));
          ("chunk=7", Pool.map_seq ~chunk:7 p square (seq_of_list xs));
          ( "chunk=window",
            Pool.map_seq ~window:32 ~chunk:32 p square (seq_of_list xs) );
          ( "chunk>n",
            Pool.map_seq ~chunk:(List.length xs + 1) p square (seq_of_list xs)
          );
          ("auto", Pool.map_seq p square (seq_of_list xs));
        ])

let test_map_seq_exception_mid_chunk_first_wins () =
  (* The raising element sits mid-chunk with clean elements on both
     sides, across several chunk granularities: the sole exception is
     the one the caller sees, and it surfaces when the window is forced. *)
  let n = 40 in
  let boom x = if x = 17 then failwith "seventeen" else x in
  Pool.with_pool ~jobs:4 (fun p ->
      List.iter
        (fun chunk ->
          match
            List.of_seq (Pool.map_seq ~chunk p boom (seq_of_list (List.init n Fun.id)))
          with
          | _ -> Alcotest.fail "expected Failure"
          | exception Failure msg ->
            Alcotest.(check string)
              (Printf.sprintf "chunk=%d" chunk)
              "seventeen" msg)
        [ 1; 7; 40; 1000 ];
      (* Everything raises: first input index wins within the window. *)
      match
        List.of_seq
          (Pool.map_seq ~window:8 ~chunk:8 p
             (fun i : int -> failwith (string_of_int i))
             (seq_of_list (List.init n Fun.id)))
      with
      | _ -> Alcotest.fail "expected Failure"
      | exception Failure msg -> Alcotest.(check string) "first wins" "0" msg)

let test_map_seq_windows_are_lazy () =
  (* Forcing the head evaluates exactly one window, chunked or not. *)
  let calls = Atomic.make 0 in
  Pool.with_pool ~jobs:2 (fun p ->
      let out =
        Pool.map_seq ~window:8 ~chunk:3 p
          (fun x ->
            Atomic.incr calls;
            x * 2)
          (seq_of_list (List.init 100 Fun.id))
      in
      (match out () with
      | Seq.Cons (y, _) -> Alcotest.(check int) "head" 0 y
      | Seq.Nil -> Alcotest.fail "expected a head");
      Alcotest.(check int) "one window evaluated" 8 (Atomic.get calls))

(* ------------------------------------------------------------------ *)
(* Memo *)

let test_memo_computes_once () =
  let m = Memo.create () in
  let computed = ref 0 in
  let compute () = incr computed; !computed * 10 in
  Alcotest.(check int) "first" 10 (Memo.find_or_add m "k" compute);
  Alcotest.(check int) "second (cached)" 10 (Memo.find_or_add m "k" compute);
  Alcotest.(check int) "computed once" 1 !computed;
  Alcotest.(check int) "hits" 1 (Memo.hits m);
  Alcotest.(check int) "misses" 1 (Memo.misses m);
  Alcotest.(check (option int)) "find" (Some 10) (Memo.find m "k");
  Alcotest.(check (option int)) "find absent" None (Memo.find m "absent");
  Alcotest.(check int) "length" 1 (Memo.length m)

let test_memo_failed_compute_caches_nothing () =
  let m = Memo.create () in
  (match Memo.find_or_add m "k" (fun () -> failwith "no") with
  | (_ : int) -> Alcotest.fail "expected Failure"
  | exception Failure _ -> ());
  Alcotest.(check (option int)) "nothing cached" None (Memo.find m "k");
  Alcotest.(check int) "retry computes" 7 (Memo.find_or_add m "k" (fun () -> 7))

let test_memo_clear () =
  let m = Memo.create () in
  ignore (Memo.find_or_add m "a" (fun () -> 1));
  ignore (Memo.find_or_add m "a" (fun () -> 1));
  Memo.clear m;
  Alcotest.(check int) "length" 0 (Memo.length m);
  Alcotest.(check int) "hits" 0 (Memo.hits m);
  Alcotest.(check int) "misses" 0 (Memo.misses m)

(* ------------------------------------------------------------------ *)
(* Fingerprints *)

let test_fingerprint_structural () =
  (* Independently enumerated but structurally equal designs share a
     fingerprint; distinct candidates (almost surely) do not. *)
  let again = Test_random_designs.pool_again () in
  List.iter2
    (fun a b ->
      Alcotest.(check string)
        ("same structure, same fingerprint: " ^ a.Design.name)
        (Design.fingerprint a) (Design.fingerprint b))
    pool_designs again;
  let fps = List.map Design.fingerprint pool_designs in
  let distinct = List.sort_uniq String.compare fps in
  Alcotest.(check int)
    "distinct designs, distinct fingerprints" (List.length fps)
    (List.length distinct)

let prop_equal_designs_hash_equal =
  (* Two independent constructions of the same design — the seeded pool
     entry and a stripped (memo-less) rescale of it — always share a
     fingerprint, whatever the index and growth factor. *)
  let pool = Storage_testkit.Seeded.lint_pool () in
  QCheck.Test.make ~name:"equal designs hash equal" ~count:200
    (QCheck.pair QCheck.(int_range 0 1000) QCheck.(float_range 0.25 64.))
    (fun (i, factor) ->
      let d = List.nth pool (i mod List.length pool) in
      let a = Storage_testkit.Seeded.scaled ~factor d in
      let b = Storage_testkit.Seeded.scaled ~factor (Design.strip d) in
      String.equal (Design.fingerprint a) (Design.fingerprint b))

let test_fingerprint_collision_smoke () =
  (* No collisions across every distinct design the seeded generators
     produce: the enumerated pool, the lint pool and a fan of scaled
     variants. A 128-bit structural hash colliding here would be a walk
     bug (a skipped leaf), not bad luck. *)
  let scaled_fan =
    List.concat_map
      (fun d ->
        List.map
          (fun factor -> Storage_testkit.Seeded.scaled ~factor d)
          [ 0.5; 2.; 3. ])
      pool_designs
  in
  let designs =
    pool_designs @ Storage_testkit.Seeded.lint_pool () @ scaled_fan
  in
  (* Structurally equal duplicates across sources are expected; count
     unique structures via their marshaled bytes. *)
  let structures =
    List.sort_uniq String.compare
      (List.map (fun d -> bytes_of (Design.strip d)) designs)
  in
  let fps =
    List.sort_uniq String.compare (List.map Design.fingerprint designs)
  in
  Alcotest.(check int)
    "distinct structures = distinct fingerprints" (List.length structures)
    (List.length fps)

let test_fingerprint_pinned () =
  (* The cache key is a persistent artifact (corpus files, future
     on-disk caches): its value for a fixed design must not drift across
     PRs. If this fails, the hash walk changed — bump cache versions and
     re-pin deliberately. *)
  Alcotest.(check string)
    "Struct_hash primitive walk"
    "eea3eae7674b0503b3c3266b2efa3f90"
    Storage_units.Struct_hash.(
      to_hex (string (float (int init 2004) 1.5) "ssdep"));
  Alcotest.(check string)
    "baseline design fingerprint" "bb74638cff39f5d89aa15379e0c9b8e3"
    (Design.fingerprint Baseline.design)

let test_scenario_fingerprint_distinct () =
  Alcotest.(check bool)
    "array vs site scenarios differ" false
    (String.equal
       (Scenario.fingerprint Baseline.scenario_array)
       (Scenario.fingerprint Baseline.scenario_site))

(* ------------------------------------------------------------------ *)
(* Parallel == serial, and the cache never changes a metric *)

(* ~200 seeded random designs drawn (with repetition, exercising the
   cache's dedup) from the enumerated pool; same draws as ever — the
   testkit's [draw] reproduces the historical loop bit for bit. *)
let seeded_candidates =
  Storage_testkit.Seeded.draw ~seed:[| 0x5DE9; 2004 |] ~n:200 pool_designs

let test_search_parallel_equals_serial () =
  let run jobs =
    Engine.with_engine ~jobs (fun engine ->
        Search.run ~engine (List.to_seq seeded_candidates) scenarios)
  in
  let serial = run 1 in
  let par = run 4 in
  check_same_bytes "evaluated" serial.Search.evaluated par.Search.evaluated;
  check_same_bytes "feasible" serial.Search.feasible par.Search.feasible;
  check_same_bytes "frontier" serial.Search.frontier par.Search.frontier;
  check_same_bytes "best" serial.Search.best par.Search.best

let test_search_chunk_invariance () =
  (* The ISSUE-6 contract behind the chunk-invariance oracle: forced
     scheduling granularities {1, 7, the window, > n} over the 200
     seeded designs are all byte-identical to the serial run. *)
  let serial =
    Engine.with_engine ~jobs:1 (fun engine ->
        Search.run ~engine (List.to_seq seeded_candidates) scenarios)
  in
  let n = List.length seeded_candidates in
  List.iter
    (fun chunk ->
      let chunked =
        let engine = Engine.create ~jobs:4 ~chunk () in
        Fun.protect
          ~finally:(fun () -> Engine.shutdown engine)
          (fun () ->
            Search.run ~engine (List.to_seq seeded_candidates) scenarios)
      in
      let label = Printf.sprintf "chunk=%d" chunk in
      check_same_bytes (label ^ " evaluated") serial.Search.evaluated
        chunked.Search.evaluated;
      check_same_bytes (label ^ " frontier") serial.Search.frontier
        chunked.Search.frontier;
      check_same_bytes (label ^ " best") serial.Search.best chunked.Search.best)
    [ 1; 7; 512 * 4; n + 1 ]

let test_search_shared_cache_equals_fresh () =
  (* Searches sharing one engine agree with each other and with a search
     on a fresh engine. *)
  Engine.with_engine ~jobs:2 (fun engine ->
      let first = Search.run ~engine (List.to_seq seeded_candidates) scenarios in
      let second =
        Search.run ~engine (List.to_seq seeded_candidates) scenarios
      in
      let fresh =
        Engine.with_engine ~jobs:1 (fun e ->
            Search.run ~engine:e (List.to_seq seeded_candidates) scenarios)
      in
      check_same_bytes "second pass, same result" first.Search.evaluated
        second.Search.evaluated;
      check_same_bytes "shared vs fresh engine" fresh.Search.evaluated
        first.Search.evaluated)

let test_cache_reports_identical () =
  let cache = Eval_cache.create () in
  List.iter
    (fun d ->
      List.iter
        (fun sc ->
          let direct = Evaluate.run d sc in
          let cached = Eval_cache.run cache d sc in
          check_same_bytes ("report: " ^ d.Design.name) direct cached;
          (* The hit path returns the very same report. *)
          Alcotest.(check bool) "hit is physically shared" true
            (cached == Eval_cache.run cache d sc))
        scenarios)
    pool_designs

let test_sensitivity_parallel_equals_serial () =
  let n = List.length pool_designs in
  let build v = List.nth pool_designs (int_of_float v mod n) in
  let values = List.init 24 float_of_int in
  let serial =
    Engine.with_engine ~jobs:1 (fun engine ->
        Sensitivity.sweep ~engine build ~values Baseline.scenario_array)
  in
  let par =
    Engine.with_engine ~jobs:4 (fun engine ->
        Sensitivity.sweep ~engine build ~values Baseline.scenario_array)
  in
  check_same_bytes "sweep points" serial par

let test_portfolio_parallel_equals_serial () =
  (* Two members on the same hardware, evaluated per-member in parallel. *)
  let rename name (d : Design.t) =
    Design.make ~name ~workload:d.Design.workload ~hierarchy:d.Design.hierarchy
      ~business:d.Design.business ~background:d.Design.background ()
  in
  let a = rename "tenant-a" (List.nth pool_designs 0) in
  let b = rename "tenant-b" (List.nth pool_designs 1) in
  let p = Portfolio.make_exn [ a; b ] in
  let serial =
    Engine.with_engine ~jobs:1 (fun engine ->
        Portfolio.evaluate ~engine p Baseline.scenario_array)
  in
  let par =
    Engine.with_engine ~jobs:4 (fun engine ->
        Portfolio.evaluate ~engine p Baseline.scenario_array)
  in
  check_same_bytes "portfolio reports" serial par

let test_sim_sweep_parallel_equals_serial () =
  let d = List.nth pool_designs 2 in
  let config =
    { Storage_sim.Sim.warmup = Duration.weeks 10.; outage = None;
      record_events = false }
  in
  let offsets =
    [ Duration.zero; Duration.hours 1.; Duration.hours 6.; Duration.hours 13.;
      Duration.hours 26. ]
  in
  let serial =
    Engine.with_engine ~jobs:1 (fun engine ->
        Storage_sim.Sim.sweep_failure_phase ~engine ~config d
          Baseline.scenario_array ~offsets)
  in
  let par =
    Engine.with_engine ~jobs:4 (fun engine ->
        Storage_sim.Sim.sweep_failure_phase ~engine ~config d
          Baseline.scenario_array ~offsets)
  in
  check_same_bytes "failure-phase sweep" serial par

let t name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "parallel_pool",
      [
        t "map matches List.map across jobs and sizes" test_map_matches_list_map;
        t "more domains than inputs" test_map_jobs_exceed_length;
        t "forced chunk sizes" test_map_forced_chunks;
        t "each input applied exactly once" test_map_applies_each_input_once;
        t "invalid jobs/chunk rejected" test_invalid_arguments;
        t "first exception propagates" test_exception_propagation;
        t "pool survives a failed batch" test_pool_survives_batch_failure;
        t "pool reused across many batches" test_pool_reuse_many_batches;
        t "shutdown is idempotent" test_shutdown_idempotent;
        t "every domain's task counter registered on create"
          test_domain_counters_registered_on_create;
        t "queue-wait skips tasks enqueued before stats were on"
          test_queue_wait_skips_pre_enable_tasks;
      ] );
    ( "parallel_map_seq",
      [
        t "empty sequence" test_map_seq_empty;
        t "chunk larger than input" test_map_seq_chunk_exceeds_input;
        t "chunk=1 and every granularity agree" test_map_seq_chunk_one_equivalence;
        t "exception mid-chunk: first wins" test_map_seq_exception_mid_chunk_first_wins;
        t "windows are lazy under chunking" test_map_seq_windows_are_lazy;
      ] );
    ( "parallel_memo",
      [
        t "computes once, then hits" test_memo_computes_once;
        t "failed compute caches nothing" test_memo_failed_compute_caches_nothing;
        t "clear resets table and counters" test_memo_clear;
      ] );
    ( "parallel_engine",
      [
        t "fingerprints are structural" test_fingerprint_structural;
        Helpers.qcheck prop_equal_designs_hash_equal;
        t "fingerprint collision smoke over the seeded pools"
          test_fingerprint_collision_smoke;
        t "fingerprint pinned values" test_fingerprint_pinned;
        t "scenario fingerprints distinguish scenarios"
          test_scenario_fingerprint_distinct;
        t "search: 4 domains byte-identical to serial (200 seeded designs)"
          test_search_parallel_equals_serial;
        t "search: chunk sizes {1,7,window,>n} byte-identical to serial"
          test_search_chunk_invariance;
        t "search: shared session cache changes nothing"
          test_search_shared_cache_equals_fresh;
        t "eval cache returns the very report evaluation would"
          test_cache_reports_identical;
        t "sensitivity sweep: parallel == serial"
          test_sensitivity_parallel_equals_serial;
        t "portfolio evaluate: parallel == serial"
          test_portfolio_parallel_equals_serial;
        t "failure-phase sweep: parallel == serial"
          test_sim_sweep_parallel_equals_serial;
      ] );
  ]
