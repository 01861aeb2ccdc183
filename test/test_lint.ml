(* The static analyzer: one fixture per rule code, registry coverage, the
   lint <-> evaluation coincidence contract, and the search pre-filter. *)

open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
open Storage_optimize
open Storage_presets
open Helpers
module Lint = Storage_lint
module Diag = Storage_lint.Diagnostic

(* --- fixture builders: a small, obviously valid design, then one knob
   turned per rule --- *)

let site = Location.make ~building:"b1" ~site:"s1" ~region:"r1"
let away = Location.make ~building:"b2" ~site:"s2" ~region:"r2"
let hot = Spare.Dedicated { provisioning_time = Duration.hours 0.1 }

let arr ?(name = "arr") ?(loc = site) ?(spare = hot) ?(cost = Cost_model.free)
    () =
  Device.make ~name ~location:loc ~max_capacity_slots:16
    ~slot_capacity:(Size.gib 100.) ~max_bandwidth_slots:8
    ~slot_bandwidth:(Rate.mib_per_sec 50.)
    ~enclosure_bandwidth:(Rate.mib_per_sec 300.) ~cost ~spare
    ~remote_spare:
      (Spare.Shared { provisioning_time = Duration.hours 9.; discount = 0.2 })
    ()

let tape ?(bandwidth = true) () =
  if bandwidth then
    Device.make ~name:"tape" ~location:site ~max_capacity_slots:100
      ~slot_capacity:(Size.gib 400.) ~max_bandwidth_slots:4
      ~slot_bandwidth:(Rate.mib_per_sec 60.)
      ~enclosure_bandwidth:(Rate.mib_per_sec 240.) ~spare:hot ()
  else
    Device.make ~name:"tape" ~location:site ~max_capacity_slots:100
      ~slot_capacity:(Size.gib 400.) ~spare:hot ()

let san =
  Interconnect.make ~name:"san"
    ~transport:
      (Interconnect.Network { link_bandwidth = Rate.mib_per_sec 256.; links = 8 })
    ()

let net name kib =
  Interconnect.make ~name
    ~transport:
      (Interconnect.Network
         { link_bandwidth = Rate.kib_per_sec kib; links = 1 })
    ()

let wl ?(cap = Size.gib 100.) ?(access = Rate.mib_per_sec 2.)
    ?(update = Rate.kib_per_sec 500.) ?(burst = 4.)
    ?(batch = Rate.kib_per_sec 400.) () =
  Workload.make ~name:"w" ~data_capacity:cap ~avg_access_rate:access
    ~avg_update_rate:update ~burst_multiplier:burst
    ~batch_curve:(Batch_curve.constant batch)

let prim ?(raid = Raid.Raid0) dev =
  { Hierarchy.technique = Technique.Primary_copy { raid }; device = dev;
    link = None }

let split ?(acc = 12.) ?(ret = 4) dev =
  { Hierarchy.technique =
      Technique.Split_mirror
        (Schedule.simple ~acc:(Duration.hours acc) ~retention_count:ret ());
    device = dev; link = None }

let backup ?(acc = 24.) ?(ret = 4) dev link =
  { Hierarchy.technique =
      Technique.Backup
        (Schedule.simple ~acc:(Duration.hours acc) ~prop:(Duration.hours 6.)
           ~hold:(Duration.hours 1.) ~retention_count:ret ());
    device = dev; link = Some link }

let mirror ?(mode = Technique.Synchronous) ?(ret = 4) dev link =
  { Hierarchy.technique =
      Technique.Remote_mirror
        { mode;
          schedule =
            Schedule.simple ~acc:(Duration.hours 12.) ~retention_count:ret () };
    device = dev; link }

let business =
  Business.make
    ~outage_penalty_rate:(Money_rate.usd_per_hour 1000.)
    ~loss_penalty_rate:(Money_rate.usd_per_hour 1000.)
    ()

let design ?(name = "fixture") ?workload levels =
  let workload = match workload with Some w -> w | None -> wl () in
  Design.make ~name ~workload ~hierarchy:(Hierarchy.make_exn levels) ~business
    ()

let codes ds = List.sort_uniq String.compare (List.map (fun d -> d.Diag.code) ds)
let scenario name sc = (name, sc)
let array_failure = scenario "array-failure" (Scenario.now (Location.Device "arr"))

(* --- one fixture per registered rule code --- *)

let fixtures : (string * (unit -> Diag.t list)) list =
  [
    ( "SSDEP-E010",
      fun () ->
        Lint.check_design
          (design ~workload:(wl ~cap:(Size.gib 2000.) ()) [ prim (arr ()) ]) );
    ( "SSDEP-E011",
      fun () ->
        Lint.check_design
          (design
             ~workload:(wl ~access:(Rate.mib_per_sec 400.) ())
             [ prim (arr ()) ]) );
    ( "SSDEP-E012",
      fun () ->
        Lint.check_design
          (design [ prim (arr ()); mirror (arr ~name:"rem" ~loc:away ()) None ])
    );
    ( "SSDEP-E013",
      fun () ->
        Lint.check_design
          (design
             [ prim (arr ());
               mirror (arr ~name:"rem" ~loc:away ()) (Some (net "thin" 100.)) ])
    );
    ( "SSDEP-E014",
      fun () ->
        Lint.check_design
          (design ~workload:(wl ~burst:infinity ()) [ prim (arr ()) ]) );
    ( "SSDEP-E015",
      fun () ->
        Lint.check_design
          (design
             [ prim (arr ~cost:(Cost_model.make ~per_gib:Float.nan ()) ()) ])
    );
    ( "SSDEP-E016",
      fun () ->
        Lint.check_scenario
          (design [ prim (arr ~spare:Spare.No_spare ()); backup (tape ()) san ])
          array_failure );
    ( "SSDEP-E017",
      fun () ->
        Lint.check_scenario
          (design [ prim (arr ()); backup (tape ~bandwidth:false ()) san ])
          array_failure );
    ( "SSDEP-E018",
      fun () ->
        let wan = net "wan" 800. in
        Lint.check_design
          (design
             [ prim (arr ());
               mirror ~mode:Technique.Asynchronous
                 (arr ~name:"rem1" ~loc:away ())
                 (Some wan);
               mirror ~mode:Technique.Asynchronous
                 (arr ~name:"rem2" ~loc:away ())
                 (Some wan) ]) );
    ( "SSDEP-W001",
      fun () ->
        Lint.check_design
          (design ~workload:(wl ~cap:(Size.gib 1500.) ()) [ prim (arr ()) ]) );
    ( "SSDEP-W002",
      fun () ->
        Lint.check_design
          (design
             ~workload:(wl ~access:(Rate.mib_per_sec 280.) ())
             [ prim (arr ()) ]) );
    ( "SSDEP-W003",
      fun () ->
        Lint.check_design
          (design
             [ prim (arr ());
               mirror ~mode:Technique.Asynchronous
                 (arr ~name:"rem" ~loc:away ())
                 (Some (net "wan" 1024.)) ]) );
    ( "SSDEP-W004",
      fun () ->
        Lint.check_design
          (design ~workload:(wl ~batch:(Rate.mib_per_sec 1.) ())
             [ prim (arr ()) ]) );
    ( "SSDEP-W005",
      fun () ->
        Lint.check_design
          (design
             ~workload:(wl ~update:Rate.zero ~batch:Rate.zero ())
             [ prim (arr ()); split (arr ()) ]) );
    ( "SSDEP-W006",
      fun () ->
        Lint.check_scenario
          (design [ prim (arr ()); split (arr ()) ])
          array_failure );
    ( "SSDEP-W007",
      fun () ->
        Lint.check_scenario
          (design [ prim (arr ()); split (arr ()) ])
          (scenario "old-rollback"
             (Scenario.make ~scope:Location.Data_object
                ~target_age:(Duration.weeks 52.) ~object_size:(Size.mib 1.) ()))
    );
    ("SSDEP-I001", fun () -> Lint.check_design Baseline.design);
    ( "SSDEP-I002",
      fun () ->
        Lint.check_design (design [ prim (arr ()); split ~ret:1 (arr ()) ]) );
  ]

let test_registry_covered () =
  let registered = List.map (fun (c, _, _) -> c) Lint.rules in
  Alcotest.(check bool)
    "at least 12 distinct codes" true
    (List.length (List.sort_uniq String.compare registered) >= 12);
  Alcotest.(check int)
    "codes are unique"
    (List.length registered)
    (List.length (List.sort_uniq String.compare registered));
  List.iter
    (fun (code, _, _) ->
      Alcotest.(check bool)
        (code ^ " has a fixture") true
        (List.mem_assoc code fixtures))
    Lint.rules

let test_fixtures_fire () =
  List.iter
    (fun (code, produce) ->
      let found = produce () in
      Alcotest.(check bool)
        (code ^ " fires on its fixture") true
        (List.mem code (codes found));
      (* Severity of every finding matches its registered severity, and no
         unregistered code ever escapes. *)
      List.iter
        (fun (d : Diag.t) ->
          match
            List.find_opt (fun (c, _, _) -> String.equal c d.Diag.code)
              Lint.rules
          with
          | None -> Alcotest.failf "unregistered code %s" d.Diag.code
          | Some (_, sev, _) ->
            Alcotest.(check string)
              (d.Diag.code ^ " severity")
              (Diag.severity_name sev)
              (Diag.severity_name d.Diag.severity))
        found)
    fixtures

let test_clean_design () =
  let d = design [ prim (arr ()); split (arr ()); backup (tape ()) san ] in
  Alcotest.(check (list string))
    "no findings" []
    (codes (Lint.check ~scenarios:[ array_failure ] d));
  Alcotest.(check bool) "accepted" true (Lint.accepts d)

let baseline_scenarios =
  [
    scenario "user-error" Baseline.scenario_object;
    scenario "array-failure" Baseline.scenario_array;
    scenario "site-disaster" Baseline.scenario_site;
  ]

let test_presets_lint_clean () =
  List.iter
    (fun (name, d) ->
      let found = Lint.check ~scenarios:baseline_scenarios d in
      Alcotest.(check (list string))
        (name ^ " has no lint errors") []
        (codes (Lint.errors found));
      Alcotest.(check bool) (name ^ " accepted") true (Lint.accepts d))
    Whatif.all

(* --- coincidence with the evaluator, over seeded random designs --- *)

let pool = Storage_testkit.Seeded.lint_pool ()

let eval_scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]

(* Scaling the workload sweeps the pool designs across the valid/invalid
   boundary: small factors stay clean, large ones overcommit devices and
   saturate links. Whatever the factor, the lint verdict must coincide
   with the evaluator's. *)
let arb_scaled =
  QCheck.pair QCheck.(int_range 0 1000) QCheck.(float_range 0.25 64.)
  |> QCheck.map (fun (i, factor) ->
         let d = List.nth pool (i mod List.length pool) in
         Storage_testkit.Seeded.scaled ~factor d)
  |> QCheck.set_print (fun d -> d.Design.name)

let prop_accepts_iff_validates =
  QCheck.Test.make ~name:"lint accepts iff Design.validate accepts" ~count:200
    arb_scaled (fun d ->
      Lint.accepts d = Result.is_ok (Design.validate d))

let prop_errors_iff_evaluation_errors =
  QCheck.Test.make
    ~name:"lint errors empty iff evaluation reports no errors" ~count:200
    arb_scaled (fun d ->
      List.for_all
        (fun sc ->
          let lint_clean =
            Lint.errors (Lint.check ~scenarios:[ scenario "s" sc ] d) = []
          in
          let eval_clean = (Evaluate.run d sc).Evaluate.errors = [] in
          lint_clean = eval_clean)
        eval_scenarios)

(* [Lint.accepts] is a decomposed fast path (validate + the E014/E015
   finiteness checks, no diagnostic construction); it must stay
   extensionally equal to "no errors in [check_design]" — on clean
   designs and on designs corrupted along every error axis the
   decomposition special-cases. *)
let test_accepts_equals_check_design () =
  let agrees name d =
    Alcotest.(check bool)
      (name ^ ": accepts = no check_design errors")
      (Lint.errors (Lint.check_design d) = [])
      (Lint.accepts d)
  in
  List.iter (fun (d : Design.t) -> agrees d.Design.name d) pool;
  List.iter
    (fun (name, d) -> agrees name d)
    [
      ( "E010 capacity overcommit",
        design ~workload:(wl ~cap:(Size.gib 2000.) ()) [ prim (arr ()) ] );
      ( "E011 bandwidth overcommit",
        design
          ~workload:(wl ~access:(Rate.mib_per_sec 400.) ())
          [ prim (arr ()) ] );
      ( "E012 missing link",
        design [ prim (arr ()); mirror (arr ~name:"rem" ~loc:away ()) None ] );
      ( "E013 thin link",
        design
          [ prim (arr ());
            mirror (arr ~name:"rem" ~loc:away ()) (Some (net "thin" 100.)) ] );
      ( "E014 non-finite burst",
        design ~workload:(wl ~burst:infinity ()) [ prim (arr ()) ] );
      ( "E014 NaN burst",
        design ~workload:(wl ~burst:Float.nan ()) [ prim (arr ()) ] );
      ( "E015 NaN device cost",
        design
          [ prim (arr ~cost:(Cost_model.make ~per_gib:Float.nan ()) ()) ] );
      ( "E015 NaN link cost",
        design
          [ prim (arr ());
            backup (tape ())
              (Interconnect.make ~name:"san-nan"
                 ~transport:
                   (Interconnect.Network
                      { link_bandwidth = Rate.mib_per_sec 256.; links = 8 })
                 ~cost:(Cost_model.make ~per_shipment:Float.nan ())
                 ()) ] );
    ]

(* --- the search pre-filter --- *)

let overcommitted_candidate =
  design ~name:"overcommitted"
    ~workload:(wl ~cap:(Size.gib 5000.) ())
    [ prim (arr ()) ]

let summary_key (s : Objective.summary) =
  ( s.Objective.design.Design.name,
    Money.to_usd s.Objective.worst_total_cost,
    s.Objective.feasible )

let test_search_prunes () =
  let good = [ List.nth pool 0; List.nth pool 1 ] in
  let seeded = [ List.nth pool 0; overcommitted_candidate; List.nth pool 1 ] in
  let scenarios = [ Baseline.scenario_array ] in
  Storage_obs.enable ();
  Storage_obs.reset ();
  let pruned = Search.run (List.to_seq seeded) scenarios in
  Storage_obs.disable ();
  Alcotest.(check int) "lint.pruned counted" 1
    (Storage_obs.Counter.value (Storage_obs.Counter.make "lint.pruned"));
  let hand_filtered =
    Storage_engine.with_engine (fun engine ->
        Search.run ~engine (List.to_seq good) scenarios)
  in
  Alcotest.(check (list (triple string (float 1e-9) bool)))
    "results identical to a hand-filtered run"
    (List.map summary_key hand_filtered.Search.evaluated)
    (List.map summary_key pruned.Search.evaluated)

let test_portfolio_prunes () =
  (* Two members that fit alone but overcommit the shared array together:
     the evaluation skips them (they are diagnosable via
     [overcommitted]). *)
  let member name =
    design ~name ~workload:(wl ~cap:(Size.gib 900.) ()) [ prim (arr ()) ]
  in
  let p = Portfolio.make_exn [ member "m1"; member "m2" ] in
  Alcotest.(check int) "both members overcommit the shared device" 1
    (List.length (Portfolio.overcommitted p));
  Storage_obs.enable ();
  Storage_obs.reset ();
  let skipped = Portfolio.evaluate p Baseline.scenario_object in
  Storage_obs.disable ();
  Alcotest.(check int) "overcommitted members skipped" 0 (List.length skipped);
  Alcotest.(check int) "skips counted" 2
    (Storage_obs.Counter.value (Storage_obs.Counter.make "lint.pruned"))

let test_exit_codes () =
  let errd = [ Diag.make ~code:"SSDEP-E010" Diag.Error Diag.Design_wide "x" ] in
  let warn = [ Diag.make ~code:"SSDEP-W001" Diag.Warning Diag.Design_wide "x" ] in
  let info = [ Diag.make ~code:"SSDEP-I001" Diag.Info Diag.Design_wide "x" ] in
  Alcotest.(check int) "errors exit 2" 2 (Lint.exit_code (errd @ warn));
  Alcotest.(check int) "warnings pass by default" 0 (Lint.exit_code warn);
  Alcotest.(check int) "warnings denied exit 1" 1
    (Lint.exit_code ~deny_warnings:true warn);
  Alcotest.(check int) "infos never fail" 0
    (Lint.exit_code ~deny_warnings:true info);
  Alcotest.(check int) "clean exit 0" 0 (Lint.exit_code [])

let test_stable_order () =
  let d =
    design
      ~workload:(wl ~cap:(Size.gib 2000.) ~burst:infinity ())
      [ prim (arr ()) ]
  in
  let found = Lint.check ~scenarios:[ array_failure ] d in
  Alcotest.(check (list string))
    "reported in Diagnostic.compare order"
    (List.map (fun (x : Diag.t) -> x.Diag.code)
       (List.sort Diag.compare found))
    (List.map (fun (x : Diag.t) -> x.Diag.code) found);
  Alcotest.(check bool) "check deduplicates" true
    (List.length (List.sort_uniq Diag.compare found) = List.length found)

let suite =
  [
    ( "lint",
      [
        Alcotest.test_case "registry covers every code" `Quick
          test_registry_covered;
        Alcotest.test_case "every rule fires on its fixture" `Quick
          test_fixtures_fire;
        Alcotest.test_case "clean design has no findings" `Quick
          test_clean_design;
        Alcotest.test_case "presets lint clean" `Quick test_presets_lint_clean;
        Alcotest.test_case "search pre-filter" `Quick test_search_prunes;
        Alcotest.test_case "portfolio pre-filter" `Quick test_portfolio_prunes;
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "stable diagnostic order" `Quick test_stable_order;
        Alcotest.test_case "accepts = no check_design errors" `Quick
          test_accepts_equals_check_design;
        qcheck prop_accepts_iff_validates;
        qcheck prop_errors_iff_evaluation_errors;
      ] );
  ]
