(* The scenario algebra (timed failure-event sets) and the fleet-scale
   Monte Carlo built on it: construction laws, multi-failure execution
   through [Sim.run_events] (independent vs absorbed recoveries), and
   byte-determinism of the fleet report. The testkit oracles
   ([fleet-degenerate], [fleet-jobs-invariance]) cover the reduction to
   the single-scenario model and engine invariance; these are the unit
   laws underneath. *)

open Storage_units
open Storage_model
open Storage_presets
open Helpers
module Sim = Storage_sim.Sim
module Fleet = Storage_fleet.Fleet
module Json = Storage_report.Json

let scope_of s = (List.hd (Scenario.events s)).Scenario.scope
let array_scope = scope_of Baseline.scenario_array
let site_scope = scope_of Baseline.scenario_site
let ev ?target_age scope at = Scenario.event ~scope ~at ?target_age ()

(* --- the scenario algebra --- *)

let test_event_validation () =
  check_raises_invalid "negative offset" (fun () ->
      ignore (Scenario.event ~scope:array_scope ~at:(Duration.hours (-1.)) ()));
  check_raises_invalid "object size on a non-corrupting scope" (fun () ->
      ignore
        (Scenario.event ~scope:array_scope ~object_size:(Size.gib 1.) ()))

let test_of_events_sorts () =
  check_raises_invalid "empty event set" (fun () ->
      ignore (Scenario.of_events []));
  let s =
    Scenario.of_events
      [
        ev array_scope (Duration.days 3.);
        ev array_scope (Duration.days 1.);
        ev array_scope (Duration.days 2.);
      ]
  in
  Alcotest.(check (list int))
    "events sorted by offset" [ 1; 2; 3 ]
    (List.map
       (fun (e : Scenario.event) ->
         int_of_float (Duration.to_seconds e.Scenario.at /. 86_400.))
       (Scenario.events s))

let test_singleton_compat () =
  let classic = Scenario.now array_scope in
  let algebraic = Scenario.of_events [ ev array_scope Duration.zero ] in
  Alcotest.(check bool) "make/now is single" true (Scenario.is_single classic);
  Alcotest.(check bool) "singleton-at-zero is single" true
    (Scenario.is_single algebraic);
  Alcotest.(check string) "same fingerprint either way"
    (Scenario.fingerprint classic)
    (Scenario.fingerprint algebraic);
  let shifted = Scenario.of_events [ ev array_scope (Duration.hours 1.) ] in
  Alcotest.(check bool) "an offset event is not the classic case" false
    (Scenario.is_single shifted);
  Alcotest.(check bool) "the offset changes the fingerprint" false
    (Scenario.fingerprint classic = Scenario.fingerprint shifted)

let test_combine_and_delay () =
  let a = Scenario.now array_scope in
  let b =
    Scenario.of_events
      [ ev ~target_age:(Duration.hours 24.) site_scope (Duration.days 2.) ]
  in
  let c = Scenario.combine a b in
  Alcotest.(check int) "union keeps every event" 2
    (List.length (Scenario.events c));
  close_duration "projection takes the oldest target" (Duration.hours 24.)
    c.Scenario.target_age;
  let d = Scenario.delay (Duration.days 1.) c in
  Alcotest.(check (list int))
    "delay shifts every offset" [ 1; 3 ]
    (List.map
       (fun (e : Scenario.event) ->
         int_of_float (Duration.to_seconds e.Scenario.at /. 86_400.))
       (Scenario.events d));
  Alcotest.(check bool) "delay changes the fingerprint" false
    (Scenario.fingerprint c = Scenario.fingerprint d);
  check_raises_invalid "negative delay" (fun () ->
      ignore (Scenario.delay (Duration.hours (-1.)) c))

(* --- Sim.run_events --- *)

let test_run_events_single_event () =
  let r = Sim.run_events Baseline.design Baseline.scenario_array in
  Alcotest.(check int) "one injected record" 1 (List.length r);
  let i = List.hd r in
  close_duration "injected at the end of the warmup"
    Sim.default_config.Sim.warmup i.Sim.injected_at;
  Alcotest.(check bool) "a recovery source was found" true
    (match i.Sim.source_level with Some l -> l > 0 | None -> false);
  Alcotest.(check bool) "the recovery completed" true
    (match i.Sim.recovery_end with
    | Some t -> Duration.compare t i.Sim.injected_at > 0
    | None -> false)

let test_run_events_separated_events_independent () =
  (* Six weeks apart: the first recovery (hours) is long since done, so
     both events must recover from the same source in the same time. *)
  let gap = Duration.weeks 6. in
  let r =
    Sim.run_events Baseline.design
      (Scenario.of_events [ ev array_scope Duration.zero; ev array_scope gap ])
  in
  match r with
  | [ first; second ] ->
    close_duration "second injected one gap later"
      (Duration.add first.Sim.injected_at gap)
      second.Sim.injected_at;
    let dur (i : Sim.injected) =
      match i.Sim.recovery_end with
      | Some t -> Duration.to_seconds t -. Duration.to_seconds i.Sim.injected_at
      | None -> Alcotest.fail "recovery did not complete"
    in
    close "identical recovery durations" (dur first) (dur second);
    Alcotest.(check int) "no replans" 0 (first.Sim.replans + second.Sim.replans)
  | l -> Alcotest.failf "expected 2 injected records, got %d" (List.length l)

let test_run_events_overlap_absorbs () =
  (* A site disaster one hour into the array rebuild destroys the array
     being rebuilt: the array event's outage is absorbed — both
     unavailability windows end when the site recovery does, from a
     deeper source. *)
  let r =
    Sim.run_events Baseline.design
      (Scenario.of_events
         [ ev array_scope Duration.zero; ev site_scope (Duration.hours 1.) ])
  in
  match r with
  | [ arr; site ] ->
    let end_of (i : Sim.injected) =
      match i.Sim.recovery_end with
      | Some t -> t
      | None -> Alcotest.fail "recovery did not complete"
    in
    close_duration "the array outage ends with the site recovery"
      (end_of site) (end_of arr);
    Alcotest.(check bool) "the site recovery uses a deeper source" true
      (match (arr.Sim.source_level, site.Sim.source_level) with
      | Some a, Some s -> s > a
      | _ -> false)
  | l -> Alcotest.failf "expected 2 injected records, got %d" (List.length l)

let test_run_events_replans () =
  (* Losing the tape library an hour into an array rebuild from backup
     (level 2) destroys the recovery's source: it re-plans once, from the
     vault (level 3), and ends later than the same array failure alone. *)
  let tape = Storage_device.Location.Device "tape-library" in
  let alone = Sim.run_events Baseline.design Baseline.scenario_array in
  let r =
    Sim.run_events Baseline.design
      (Scenario.of_events
         [ ev array_scope Duration.zero; ev tape (Duration.hours 1.) ])
  in
  match (alone, r) with
  | [ solo ], [ arr; _ ] ->
    let end_of (i : Sim.injected) =
      match i.Sim.recovery_end with
      | Some t -> t
      | None -> Alcotest.fail "recovery did not complete"
    in
    Alcotest.(check (option int)) "alone: from backup" (Some 2)
      solo.Sim.source_level;
    Alcotest.(check int) "re-planned once" 1 arr.Sim.replans;
    Alcotest.(check (option int)) "re-planned onto the vault" (Some 3)
      arr.Sim.source_level;
    Alcotest.(check bool) "the re-planned recovery ends later" true
      (Duration.compare (end_of arr) (end_of solo) > 0)
  | _ -> Alcotest.fail "unexpected injected record count"

let test_run_and_run_events_agree_on_one_failure () =
  (* Both entry points share the warmup and the failure injection, so on
     a one-event scenario they must pick the same source and measure the
     same data loss; only the recovery time differs (frozen vs live
     bandwidth). The source is chosen at the injection, so [run_events]
     may stop there (a zero horizon). *)
  let scenarios =
    [
      Baseline.scenario_object;
      Baseline.scenario_array;
      Baseline.scenario_site;
      Scenario.make ~scope:array_scope ~target_age:(Duration.hours 30.) ();
    ]
  in
  List.iter
    (fun (name, design) ->
      List.iter
        (fun scenario ->
          List.iter
            (fun weeks ->
              let config =
                { Sim.default_config with Sim.warmup = Duration.weeks weeks }
              in
              let m = Sim.run ~config design scenario in
              let i =
                List.hd
                  (Sim.run_events ~config ~horizon:Duration.zero design
                     scenario)
              in
              let case =
                Printf.sprintf "%s, %s, %g wk" name
                  (Storage_device.Location.scope_name (scope_of scenario))
                  weeks
              in
              Alcotest.(check (option int))
                (case ^ ": source") m.Sim.source_level i.Sim.source_level;
              Alcotest.(check bool)
                (case ^ ": data loss") true
                (m.Sim.data_loss = i.Sim.data_loss))
            [ 4.; 12.; 12.3; 30. ])
        scenarios)
    Whatif.all

(* --- the fleet Monte Carlo --- *)

let test_fleet_validation () =
  check_raises_invalid "zero trials" (fun () ->
      ignore (Fleet.config ~trials:0 ()));
  check_raises_invalid "non-positive horizon" (fun () ->
      ignore (Fleet.config ~horizon_years:0. ()));
  check_raises_invalid "negative rate" (fun () ->
      ignore (Fleet.rates ~default_afr:(-0.1) ()));
  check_raises_invalid "erasure sweep: required > fragments" (fun () ->
      ignore
        (Fleet.erasure_sweep
           ~make:(fun ~fragments:_ ~required:_ -> Baseline.design)
           [ (9, 6) ]))

let test_sample_events_deterministic_and_sorted () =
  let horizon = Duration.scale (5. *. 365.25) (Duration.days 1.) in
  (* Scan a few seeds so the assertions run on a non-empty trace. *)
  let seed =
    List.find
      (fun seed -> Fleet.sample_events ~horizon ~seed Baseline.design <> [])
      (List.init 64 (fun i -> Int64.of_int (0xF1EE7 + i)))
  in
  let a = Fleet.sample_events ~horizon ~seed Baseline.design in
  let b = Fleet.sample_events ~horizon ~seed Baseline.design in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let offsets = List.map (fun (e : Scenario.event) -> e.Scenario.at) a in
  Alcotest.(check bool) "offsets sorted within the horizon" true
    (List.for_all2
       (fun x y -> Duration.compare x y <= 0)
       offsets
       (List.tl offsets @ [ horizon ]))

let test_zero_failure_trial_is_fully_available () =
  let horizon = Duration.scale 365.25 (Duration.days 1.) in
  let quiet =
    List.find_map
      (fun i ->
        let seed = Int64.of_int (1000 + i) in
        match Fleet.sample_events ~horizon ~seed Baseline.design with
        | [] -> Some seed
        | _ -> None)
      (List.init 64 Fun.id)
  in
  match quiet with
  | None -> Alcotest.fail "no quiet seed in 64 candidates (1-year horizon)"
  | Some seed ->
    let t = Fleet.run_trial ~horizon ~seed ~index:0 Baseline.design in
    Alcotest.(check int) "no failures" 0 t.Fleet.failures;
    Alcotest.(check bool) "no outage" true (Duration.is_zero t.Fleet.outage);
    Alcotest.(check int) "no losses" 0 t.Fleet.losses;
    Alcotest.(check bool) "no bytes lost" true (Size.is_zero t.Fleet.bytes_lost);
    Alcotest.(check int) "no rebuilds" 0 (List.length t.Fleet.rebuilds)

let test_fleet_report_deterministic_and_sane () =
  let config = Fleet.config ~trials:40 ~horizon_years:2. () in
  let a = Fleet.run ~config Baseline.design in
  let b = Fleet.run ~config Baseline.design in
  Alcotest.(check string) "byte-identical JSON across runs"
    (Json.to_string (Fleet.to_json a))
    (Json.to_string (Fleet.to_json b));
  Alcotest.(check int) "trial count echoed" 40 a.Fleet.trials;
  Alcotest.(check bool) "availability in [0, 1]" true
    (a.Fleet.availability >= 0. && a.Fleet.availability <= 1.);
  Alcotest.(check bool) "durability in [0, 1]" true
    (a.Fleet.durability >= 0. && a.Fleet.durability <= 1.);
  Alcotest.(check bool) "failed trials bounded by failures and trials" true
    (a.Fleet.failed_trials <= a.Fleet.failures
    && a.Fleet.failed_trials <= a.Fleet.trials
    && a.Fleet.multi_event_trials <= a.Fleet.failed_trials)

let suite =
  [
    ( "scenario.algebra",
      [
        Alcotest.test_case "event validation" `Quick test_event_validation;
        Alcotest.test_case "of_events sorts; empty rejected" `Quick
          test_of_events_sorts;
        Alcotest.test_case "singleton-at-zero is the classic scenario" `Quick
          test_singleton_compat;
        Alcotest.test_case "combine and delay" `Quick test_combine_and_delay;
      ] );
    ( "sim.run_events",
      [
        Alcotest.test_case "single event recovers" `Quick
          test_run_events_single_event;
        Alcotest.test_case "separated events recover independently" `Quick
          test_run_events_separated_events_independent;
        Alcotest.test_case "overlapping site failure absorbs the array outage"
          `Quick test_run_events_overlap_absorbs;
        Alcotest.test_case "a failure of the recovery source re-plans" `Quick
          test_run_events_replans;
        Alcotest.test_case "run and run_events agree on one failure" `Slow
          test_run_and_run_events_agree_on_one_failure;
      ] );
    ( "fleet",
      [
        Alcotest.test_case "config and sweep validation" `Quick
          test_fleet_validation;
        Alcotest.test_case "trace sampling deterministic and sorted" `Quick
          test_sample_events_deterministic_and_sorted;
        Alcotest.test_case "a quiet trial is fully available" `Quick
          test_zero_failure_trial_is_fully_available;
        Alcotest.test_case "report deterministic and internally consistent"
          `Quick test_fleet_report_deterministic_and_sane;
      ] );
  ]
