(* The Engine execution context: lifecycle, typed slots, the streaming
   map, and the property suite proving the streaming search pipeline is
   byte-identical to the materialized legacy loop. *)

open Storage_model
open Storage_optimize
open Storage_presets
module Engine = Storage_engine

let scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]

let bytes_of x = Marshal.to_string x [ Marshal.No_sharing ]

let check_same_bytes msg a b =
  Alcotest.(check bool) msg true (String.equal (bytes_of a) (bytes_of b))

(* ------------------------------------------------------------------ *)
(* Lifecycle and configuration *)

let test_create_defaults () =
  let e = Engine.create () in
  Alcotest.(check int) "jobs" 1 (Engine.jobs e);
  Engine.shutdown e

let test_create_invalid () =
  Helpers.check_raises_invalid "jobs=0" (fun () -> Engine.create ~jobs:0 ())

let ok_engine = function
  | Ok e -> e
  | Error m -> Alcotest.failf "of_cli: %s" m

(* SSDEP_JOBS resolution: the env supplies the default, an explicit
   --jobs wins, and a malformed value is a configuration error naming
   the variable — never a silent serial fallback. *)
let test_of_cli_env () =
  let env v _ = v in
  let e = ok_engine (Engine.of_cli ~env:(env (Some "3")) ~jobs:None ~stats:false ()) in
  Alcotest.(check int) "env default" 3 (Engine.jobs e);
  Engine.shutdown e;
  let e = ok_engine (Engine.of_cli ~env:(env None) ~jobs:None ~stats:false ()) in
  Alcotest.(check int) "absent env means serial" 1 (Engine.jobs e);
  Engine.shutdown e;
  let e =
    ok_engine
      (Engine.of_cli ~env:(env (Some "banana")) ~jobs:(Some 2) ~stats:false ())
  in
  Alcotest.(check int) "explicit flag wins over env" 2 (Engine.jobs e);
  Engine.shutdown e;
  List.iter
    (fun bad ->
      match Engine.of_cli ~env:(env (Some bad)) ~jobs:None ~stats:false () with
      | Ok _ -> Alcotest.failf "SSDEP_JOBS=%s accepted" bad
      | Error m ->
        Alcotest.(check bool)
          (Printf.sprintf "error names the variable (%s)" bad)
          true
          (Helpers.contains m Engine.jobs_env_var))
    [ "banana"; "0"; "-3"; "" ]

let test_shutdown_idempotent_and_revivable () =
  let e = Engine.create ~jobs:3 () in
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int)) "first batch" (List.map succ xs)
    (Engine.map e succ xs);
  Engine.shutdown e;
  Engine.shutdown e;
  (* A map after shutdown lazily re-creates the pool. *)
  Alcotest.(check (list int)) "after shutdown" (List.map succ xs)
    (Engine.map e succ xs);
  Engine.shutdown e

let test_with_engine_shuts_down_on_exception () =
  match
    Engine.with_engine ~jobs:2 (fun e ->
        ignore (Engine.map e succ [ 1; 2; 3 ]);
        failwith "boom")
  with
  | () -> Alcotest.fail "expected Failure"
  | exception Failure msg -> Alcotest.(check string) "propagated" "boom" msg

(* ------------------------------------------------------------------ *)
(* Typed slots *)

let int_slot : int ref Engine.key = Engine.new_key ()
let string_slot : string Engine.key = Engine.new_key ()

let test_slots_per_engine_per_key () =
  let a = Engine.create () and b = Engine.create () in
  let ra = Engine.slot a int_slot ~default:(fun () -> ref 1) in
  ra := 42;
  (* Same key, same engine: same slot value. *)
  Alcotest.(check int) "sticky" 42 !(Engine.slot a int_slot ~default:(fun () -> ref 0));
  (* Same key, other engine: fresh slot. *)
  Alcotest.(check int) "per-engine" 1
    !(Engine.slot b int_slot ~default:(fun () -> ref 1));
  (* Distinct keys on one engine do not collide. *)
  Alcotest.(check string) "per-key" "hello"
    (Engine.slot a string_slot ~default:(fun () -> "hello"))

let test_eval_cache_slot_shared () =
  Engine.with_engine (fun e ->
      let c1 = Eval_cache.of_engine e in
      let c2 = Eval_cache.of_engine e in
      Alcotest.(check bool) "one cache per engine" true (c1 == c2))

(* ------------------------------------------------------------------ *)
(* map_seq: the bounded streaming parallel map *)

let test_map_seq_matches_seq_map () =
  (* 2,600 elements span more than one window (512 elements per domain)
     at every [jobs], with an auto-sized or a forced chunk. *)
  let xs = List.init 2600 (fun i -> i - 5) in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      List.iter
        (fun chunk ->
          Engine.with_engine ~jobs (fun e ->
              Alcotest.(check (list int))
                (Printf.sprintf "jobs=%d chunk=%s" jobs
                   (Option.fold ~none:"auto" ~some:string_of_int chunk))
                expected
                (List.of_seq
                   (Engine.map_seq ?chunk e (fun x -> x * x) (List.to_seq xs)))))
        [ None; Some 1; Some 7; Some 1000 ])
    [ 1; 2; 4 ]

let test_map_seq_is_lazy () =
  (* Nothing runs until the result sequence is forced, and forcing only a
     prefix only evaluates whole windows, not the entire input. *)
  Engine.with_engine ~jobs:2 (fun e ->
      let calls = Atomic.make 0 in
      let xs = Seq.ints 0 |> Seq.take 10_000 in
      let out =
        Engine.map_seq e
          (fun x ->
            Atomic.incr calls;
            x + 1)
          xs
      in
      Alcotest.(check int) "nothing forced yet" 0 (Atomic.get calls);
      (match Seq.uncons out with
      | Some (y, _) -> Alcotest.(check int) "head" 1 y
      | None -> Alcotest.fail "expected an element");
      Alcotest.(check bool)
        (Printf.sprintf "only one window forced (%d calls)" (Atomic.get calls))
        true
        (Atomic.get calls <= 512 * 2))

let test_map_seq_exception_propagates () =
  (* Four domains read windows of 512 x 4 = 2,048 elements, so the
     failing element sits in the third: the two windows before it are
     yielded, then its exception. *)
  Engine.with_engine ~jobs:4 (fun e ->
      let xs = List.to_seq (List.init 5000 Fun.id) in
      let out =
        Engine.map_seq e
          (fun x -> if x = 4137 then failwith "forty-one thirty-seven" else x)
          xs
      in
      let yielded = ref 0 in
      match Seq.iter (fun _ -> incr yielded) out with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
        Alcotest.(check string) "failing element's exception"
          "forty-one thirty-seven" msg;
        Alcotest.(check int) "earlier windows yielded first" 4096 !yielded)

(* ------------------------------------------------------------------ *)
(* Streaming search == materialized legacy search *)

(* ~200 seeded random designs drawn with repetition from an enumerated
   pool; same draws as ever — the testkit's [draw] reproduces the
   historical loop bit for bit. *)
let seeded_candidates =
  Storage_testkit.Seeded.draw ~seed:[| 0x57E4; 2004 |] ~n:200
    Test_random_designs.pool

let legacy_oracle () = Search.run_materialized seeded_candidates scenarios

let check_result_identical msg (a : Search.result) (b : Search.result) =
  check_same_bytes (msg ^ ": evaluated") a.Search.evaluated b.Search.evaluated;
  check_same_bytes (msg ^ ": feasible") a.Search.feasible b.Search.feasible;
  check_same_bytes (msg ^ ": frontier") a.Search.frontier b.Search.frontier;
  check_same_bytes (msg ^ ": best") a.Search.best b.Search.best;
  Alcotest.(check int) (msg ^ ": considered") a.Search.considered
    b.Search.considered;
  Alcotest.(check int) (msg ^ ": feasible_count") a.Search.feasible_count
    b.Search.feasible_count

let test_streaming_equals_materialized () =
  (* The full matrix the refactor must not disturb: serial and 4-domain
     streaming runs, each on a fresh engine and as a second pass on a
     reused one, all byte-identical to the materialized pre-engine loop. *)
  let oracle = legacy_oracle () in
  List.iter
    (fun jobs ->
      let fresh =
        Engine.with_engine ~jobs (fun engine ->
            Search.run ~engine (List.to_seq seeded_candidates) scenarios)
      in
      check_result_identical
        (Printf.sprintf "fresh engine, jobs=%d" jobs)
        oracle fresh;
      let shared =
        Engine.with_engine ~jobs (fun engine ->
            ignore
              (Search.run ~engine (List.to_seq seeded_candidates) scenarios);
            Search.run ~engine (List.to_seq seeded_candidates) scenarios)
      in
      check_result_identical
        (Printf.sprintf "reused engine, jobs=%d" jobs)
        oracle shared)
    [ 1; 4 ]

let test_streaming_never_materializes () =
  (* With [~top_k] the pipeline visits every candidate exactly once and
     retains none of the non-frontier summaries. *)
  let forced = Atomic.make 0 in
  let counted =
    Seq.map
      (fun d ->
        Atomic.incr forced;
        d)
      (List.to_seq seeded_candidates)
  in
  let r =
    Engine.with_engine ~jobs:4 (fun engine ->
        Search.run ~engine ~top_k:5 counted scenarios)
  in
  Alcotest.(check int) "each candidate forced once" 200 (Atomic.get forced);
  Alcotest.(check int) "evaluated dropped" 0 (List.length r.Search.evaluated);
  Alcotest.(check bool) "top-k respected" true
    (List.length r.Search.feasible <= 5);
  let oracle = legacy_oracle () in
  (* The oracle's designs are the shared candidates, whose fingerprint
     memos other tests may have filled; the survivors [Search.run]
     rebuilt are fresh copies. Fill both sides' memos so the bytes
     compare the results, not which designs happened to be keyed. *)
  let force_fingerprints (r : Search.result) =
    List.iter
      (fun s -> ignore (Design.fingerprint s.Objective.design))
      (r.Search.frontier @ Option.to_list r.Search.best)
  in
  force_fingerprints oracle;
  force_fingerprints r;
  check_same_bytes "frontier unaffected by truncation" oracle.Search.frontier
    r.Search.frontier;
  check_same_bytes "best unaffected by truncation" oracle.Search.best
    r.Search.best

let t name f = Alcotest.test_case name `Quick f

let suite =
  [
    ( "engine.lifecycle",
      [
        t "create defaults" test_create_defaults;
        t "invalid arguments rejected" test_create_invalid;
        t "of_cli resolves SSDEP_JOBS" test_of_cli_env;
        t "shutdown idempotent, pool revivable"
          test_shutdown_idempotent_and_revivable;
        t "with_engine shuts down on exception"
          test_with_engine_shuts_down_on_exception;
      ] );
    ( "engine.slots",
      [
        t "slots are per-engine, per-key" test_slots_per_engine_per_key;
        t "eval cache lives in a slot" test_eval_cache_slot_shared;
      ] );
    ( "engine.map_seq",
      [
        t "matches Seq.map across jobs and chunks" test_map_seq_matches_seq_map;
        t "lazy: forces at most one window ahead" test_map_seq_is_lazy;
        t "first exception propagates" test_map_seq_exception_propagates;
      ] );
    ( "engine.streaming_search",
      [
        t "streaming == materialized (200 seeded designs, serial+4 domains, \
           fresh+warm cache)"
          test_streaming_equals_materialized;
        t "top-k truncation retains O(k), single pass"
          test_streaming_never_materializes;
      ] );
  ]
