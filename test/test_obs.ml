(* Observability layer: the metrics registry is inert while disabled,
   records faithfully while enabled, and never perturbs an evaluation
   result either way. *)

open Storage_model
open Storage_presets
open Helpers

let bytes_of x = Marshal.to_string x [ Marshal.No_sharing ]

(* Every test that enables recording must switch it back off, even on
   failure: the flag is process-wide and later suites assume the
   default. *)
let with_obs f =
  Storage_obs.enable ();
  Fun.protect ~finally:(fun () -> Storage_obs.disable ()) f

(* --- registry primitives --- *)

let test_disabled_is_inert () =
  Alcotest.(check bool) "recording is off by default" false
    (Storage_obs.enabled ());
  let c = Storage_obs.Counter.make "test.inert.counter" in
  let t = Storage_obs.Timer.make "test.inert.timer" in
  let h = Storage_obs.Histogram.make "test.inert.histogram" in
  Storage_obs.Counter.incr c;
  Storage_obs.Counter.add c 5;
  Alcotest.(check int) "timer still runs its function" 42
    (Storage_obs.Timer.time t (fun () -> 6 * 7));
  Storage_obs.Histogram.observe h 0.25;
  Alcotest.(check int) "counter untouched" 0 (Storage_obs.Counter.value c);
  Alcotest.(check int) "timer untouched" 0 (Storage_obs.Timer.count t);
  Alcotest.(check int) "histogram untouched" 0 (Storage_obs.Histogram.count h)

let test_enabled_records () =
  with_obs @@ fun () ->
  let c = Storage_obs.Counter.make "test.live.counter" in
  Storage_obs.Counter.incr c;
  Storage_obs.Counter.add c 4;
  Alcotest.(check int) "counter counts" 5 (Storage_obs.Counter.value c);
  (* Same-name handles share one metric. *)
  let c' = Storage_obs.Counter.make "test.live.counter" in
  Storage_obs.Counter.incr c';
  Alcotest.(check int) "same-name handles share state" 6
    (Storage_obs.Counter.value c);
  let t = Storage_obs.Timer.make "test.live.timer" in
  ignore (Storage_obs.Timer.time t (fun () -> ()));
  ignore (Storage_obs.Timer.time t (fun () -> ()));
  Alcotest.(check int) "timer counts calls" 2 (Storage_obs.Timer.count t);
  Alcotest.(check bool) "accumulated time non-negative" true
    (Storage_obs.Timer.total_seconds t >= 0.);
  (match Storage_obs.Timer.time t (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "timed exception must propagate");
  Alcotest.(check int) "raising call still counted" 3
    (Storage_obs.Timer.count t);
  let h = Storage_obs.Histogram.make "test.live.histogram" in
  List.iter (Storage_obs.Histogram.observe h) [ 1e-7; 0.5; 3.; 1e12 ];
  Alcotest.(check int) "histogram counts" 4 (Storage_obs.Histogram.count h);
  close "histogram sums" (1e-7 +. 0.5 +. 3. +. 1e12)
    (Storage_obs.Histogram.sum h);
  Storage_obs.reset ();
  Alcotest.(check int) "reset zeroes counters" 0 (Storage_obs.Counter.value c);
  Alcotest.(check int) "reset zeroes timers" 0 (Storage_obs.Timer.count t);
  Alcotest.(check int) "reset zeroes histograms" 0
    (Storage_obs.Histogram.count h)

(* Timers read wall-clock time, which can step backwards (NTP). A span
   measured across a backwards step must clamp to zero, never record a
   negative or absurd duration. Pinned with an injected clock. *)
let test_timer_clamps_backwards_clock () =
  with_obs @@ fun () ->
  let t = Storage_obs.Timer.make "test.clock.timer" in
  (* Clock steps backwards by an hour between the two reads. *)
  let ticks = ref [ 1000.; -2600. ] in
  let clock () =
    match !ticks with
    | [] -> 0.
    | x :: rest ->
      ticks := rest;
      x
  in
  let v = Storage_obs.with_clock clock (fun () ->
      Storage_obs.Timer.time t (fun () -> 7)) in
  Alcotest.(check int) "timed function ran" 7 v;
  Alcotest.(check int) "call counted" 1 (Storage_obs.Timer.count t);
  close "backwards span clamps to zero" 0. (Storage_obs.Timer.total_seconds t);
  (* And a forward clock still records the real span. *)
  let ticks2 = ref [ 10.; 12.5 ] in
  let clock2 () =
    match !ticks2 with
    | [] -> 12.5
    | x :: rest ->
      ticks2 := rest;
      x
  in
  ignore (Storage_obs.with_clock clock2 (fun () ->
      Storage_obs.Timer.time t (fun () -> ())));
  close "forward span recorded" 2.5 (Storage_obs.Timer.total_seconds t);
  (* with_clock restores the previous clock on exit. *)
  Alcotest.(check bool) "real clock restored" true (Storage_obs.now () > 0.)

let test_snapshot_shape () =
  with_obs @@ fun () ->
  let c = Storage_obs.Counter.make "test.snap.counter" in
  Storage_obs.Counter.add c 3;
  Storage_obs.gauge "test.snap.gauge" (fun () -> 1.5);
  let module J = Storage_report.Json in
  match Storage_obs.snapshot () with
  | J.Obj fields ->
    let keys = List.map fst fields in
    Alcotest.(check bool) "keys sorted" true
      (keys = List.sort String.compare keys);
    (match List.assoc_opt "test.snap.counter" fields with
    | Some (J.Int 3) -> ()
    | _ -> Alcotest.fail "counter must snapshot as Int 3");
    (match List.assoc_opt "test.snap.gauge" fields with
    | Some (J.Float v) -> close "gauge polled at snapshot" 1.5 v
    | _ -> Alcotest.fail "gauge must snapshot as Float")
  | _ -> Alcotest.fail "snapshot must be a JSON object"

(* --- recording never perturbs the model --- *)

let scenarios =
  [ Baseline.scenario_object; Baseline.scenario_array; Baseline.scenario_site ]

let evaluate_everything () =
  List.map (fun d -> Evaluate.run_all d scenarios) Test_random_designs.pool

let test_obs_never_perturbs_evaluate () =
  Storage_obs.disable ();
  let baseline = bytes_of (evaluate_everything ()) in
  let recorded, after_snapshot =
    with_obs @@ fun () ->
    let r1 = bytes_of (evaluate_everything ()) in
    ignore (Storage_obs.snapshot ());
    Storage_obs.reset ();
    let r2 = bytes_of (evaluate_everything ()) in
    (r1, r2)
  in
  Alcotest.(check bool) "recording does not perturb reports" true
    (String.equal baseline recorded);
  Alcotest.(check bool) "snapshot and reset do not perturb reports" true
    (String.equal baseline after_snapshot);
  Alcotest.(check bool) "disabled again, reports unchanged" true
    (String.equal baseline (bytes_of (evaluate_everything ())))

let suite =
  [
    ( "obs.registry",
      [
        Alcotest.test_case "disabled recording is inert" `Quick
          test_disabled_is_inert;
        Alcotest.test_case "enabled recording counts" `Quick
          test_enabled_records;
        Alcotest.test_case "timer clamps a backwards clock" `Quick
          test_timer_clamps_backwards_clock;
        Alcotest.test_case "snapshot shape" `Quick test_snapshot_shape;
        Alcotest.test_case "never perturbs evaluation" `Quick
          test_obs_never_perturbs_evaluate;
      ] );
  ]
