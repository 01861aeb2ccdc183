(* Tests for the framework extensions: frequency-weighted risk, degraded
   mode, multi-object portfolios and sensitivity sweeps. *)

open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
open Storage_presets
open Helpers

(* --- Risk --- *)

let weighted =
  [
    { Risk.scenario = Baseline.scenario_object; frequency_per_year = 4. };
    { Risk.scenario = Baseline.scenario_array; frequency_per_year = 0.2 };
    { Risk.scenario = Baseline.scenario_site; frequency_per_year = 0.01 };
  ]

let test_risk_assessment () =
  let r = Risk.assess Baseline.design weighted in
  Alcotest.(check int) "three exposures" 3 (List.length r.Risk.exposures);
  (* Expected penalty = sum of frequency x per-incident penalty. *)
  let manual =
    List.fold_left
      (fun acc (e : Risk.exposure) ->
        acc
        +. (e.Risk.weighted.Risk.frequency_per_year
           *. Money.to_usd e.Risk.per_incident_penalty))
      0. r.Risk.exposures
  in
  close ~tol:1e-9 "expectation arithmetic" manual
    (Money.to_usd r.Risk.expected_annual_penalty);
  close ~tol:1e-9 "total = outlays + expectation"
    (Money.to_usd r.Risk.annual_outlays
    +. Money.to_usd r.Risk.expected_annual_penalty)
    (Money.to_usd r.Risk.expected_annual_cost);
  (* Object errors at 4/yr ($0.6M each) dominate the 0.01/yr site risk
     ($72M each): 2.4M vs 0.73M. *)
  let penalty scope_level =
    let e = List.nth r.Risk.exposures scope_level in
    Money.to_usd e.Risk.expected_annual_penalty
  in
  Alcotest.(check bool) "frequent small beats rare large" true
    (penalty 0 > penalty 2)

let test_risk_ranking () =
  let ranked =
    Risk.compare_designs (List.map snd Whatif.all) weighted
  in
  let costs =
    List.map (fun (_, r) -> Money.to_usd r.Risk.expected_annual_cost) ranked
  in
  Alcotest.(check bool) "sorted ascending" true
    (costs = List.sort Float.compare costs);
  (* Under frequency weighting, designs with good object-rollback
     behaviour (cheap, frequent case) should rank well; the mirror-only
     design pays the entire-object penalty on every user error and must
     rank last. *)
  let last, _ = List.nth ranked (List.length ranked - 1) in
  Alcotest.(check bool) "mirror-only worst under user-error weighting" true
    (String.length last.Design.name >= 6 && String.sub last.Design.name 0 6 = "asyncB")

let test_risk_validation () =
  check_raises_invalid "empty" (fun () -> Risk.assess Baseline.design []);
  check_raises_invalid "negative frequency" (fun () ->
      Risk.assess Baseline.design
        [ { Risk.scenario = Baseline.scenario_array; frequency_per_year = -1. } ])

let test_risk_monte_carlo () =
  let dist =
    Risk.monte_carlo ~samples:4000 Baseline.design weighted ~horizon_years:10.
  in
  let expectation =
    10. *. Money.to_usd (Risk.assess Baseline.design weighted).Risk.expected_annual_cost
  in
  (* The sampler's mean must agree with the analytic expectation within
     sampling noise, and the quantiles must be ordered. *)
  close ~tol:0.05 "mean matches expectation" expectation
    (Money.to_usd dist.Risk.mean);
  Alcotest.(check bool) "quantiles ordered" true
    (Money.compare dist.Risk.p50 dist.Risk.p95 <= 0
    && Money.compare dist.Risk.p95 dist.Risk.p99 <= 0
    && Money.compare dist.Risk.p99 dist.Risk.max <= 0);
  (* Deterministic for a fixed seed. *)
  let again =
    Risk.monte_carlo ~samples:4000 Baseline.design weighted ~horizon_years:10.
  in
  close ~tol:1e-12 "deterministic" (Money.to_usd dist.Risk.mean)
    (Money.to_usd again.Risk.mean);
  check_raises_invalid "bad horizon" (fun () ->
      Risk.monte_carlo Baseline.design weighted ~horizon_years:0.);
  check_raises_invalid "bad samples" (fun () ->
      Risk.monte_carlo ~samples:0 Baseline.design weighted ~horizon_years:1.)

let test_risk_monte_carlo_lambda_regimes () =
  (* Exercise the Poisson sampler in every rate regime: no incidents,
     rare events, the multiplicative/normal switchover at lambda = 30,
     and lambda = 1e3 where exp(-lambda) underflows to zero (the
     multiplicative method alone would loop on garbage there). *)
  List.iter
    (fun freq ->
      let weighted =
        [
          { Risk.scenario = Baseline.scenario_object; frequency_per_year = freq };
        ]
      in
      let dist =
        Risk.monte_carlo ~samples:500 Baseline.design weighted
          ~horizon_years:10.
      in
      let finite m = Float.is_finite (Money.to_usd m) in
      Alcotest.(check bool) (Fmt.str "finite at frequency %g" freq) true
        (finite dist.Risk.mean
        && Float.is_finite dist.Risk.stddev
        && finite dist.Risk.p50 && finite dist.Risk.max);
      Alcotest.(check bool) (Fmt.str "ordered at frequency %g" freq) true
        (Money.compare dist.Risk.p50 dist.Risk.p95 <= 0
        && Money.compare dist.Risk.p95 dist.Risk.p99 <= 0
        && Money.compare dist.Risk.p99 dist.Risk.max <= 0))
    [ 0.; 0.01; 3.; 100. ]

let test_risk_monte_carlo_large_lambda_regression () =
  (* Regression for the lambda ~ 1e3 underflow: the sampled mean must
     still track the analytic expectation. At lambda = 1000 the relative
     sampling noise of the mean over 2000 draws is ~0.1%, so a 2%
     tolerance is forgiving but would still catch a broken sampler. *)
  let weighted =
    [ { Risk.scenario = Baseline.scenario_object; frequency_per_year = 100. } ]
  in
  let dist =
    Risk.monte_carlo ~samples:2000 Baseline.design weighted ~horizon_years:10.
  in
  let expectation =
    10.
    *. Money.to_usd
         (Risk.assess Baseline.design weighted).Risk.expected_annual_cost
  in
  close ~tol:0.02 "mean matches analytic expectation at lambda=1e3"
    expectation
    (Money.to_usd dist.Risk.mean)

(* --- Degraded --- *)

let test_degraded_backup_outage () =
  (* With the backup level down for a week before an array failure, the
     freshest surviving RPs are the (week-staler) tape copies. *)
  let r =
    Degraded.evaluate Baseline.design ~disabled_level:2
      ~outage:(Duration.weeks 1.) Baseline.scenario_array
  in
  (match r.Degraded.data_loss.Data_loss.loss with
  | Data_loss.Updates d ->
    (* Healthy worst case is 217 hr; the outage adds its full week because
       the backup level itself is the recovery source and it is frozen. *)
    close "385 hr" (217. +. 168.) (Duration.to_hours d)
  | Data_loss.Entire_object -> Alcotest.fail "expected recoverable loss");
  close_duration "added loss" (Duration.hours 168.) r.Degraded.added_loss

let test_degraded_source_unaffected () =
  (* Disabling the vault does not change array-failure loss: the backup
     level still serves. *)
  let r =
    Degraded.evaluate Baseline.design ~disabled_level:3
      ~outage:(Duration.weeks 2.) Baseline.scenario_array
  in
  close_duration "no added loss" Duration.zero r.Degraded.added_loss;
  Alcotest.(check (option int)) "backup still serves" (Some 2)
    r.Degraded.data_loss.Data_loss.source_level

let test_degraded_site_with_vault_outage () =
  (* A site disaster during a vault outage: the vault's RPs aged by the
     outage. *)
  let r =
    Degraded.evaluate Baseline.design ~disabled_level:3
      ~outage:(Duration.weeks 4.) Baseline.scenario_site
  in
  match r.Degraded.data_loss.Data_loss.loss with
  | Data_loss.Updates d -> close "1429 + 672 hr" (1429. +. 672.) (Duration.to_hours d)
  | Data_loss.Entire_object -> Alcotest.fail "expected recoverable loss"

let test_degraded_frozen_mirror_staler () =
  (* Object rollback while the split mirror has been frozen for two days:
     the mirrors still serve, but the 24-hour target now predates their
     frozen window, losing 36 hours of updates instead of 12. *)
  let r =
    Degraded.evaluate Baseline.design ~disabled_level:1
      ~outage:(Duration.hours 48.) Baseline.scenario_object
  in
  Alcotest.(check (option int)) "mirror still serves" (Some 1)
    r.Degraded.data_loss.Data_loss.source_level;
  match r.Degraded.data_loss.Data_loss.loss with
  | Data_loss.Updates d -> close "36 hr" 36. (Duration.to_hours d)
  | Data_loss.Entire_object -> Alcotest.fail "expected recoverable loss"

let test_degraded_validation () =
  check_raises_invalid "level 0" (fun () ->
      Degraded.evaluate Baseline.design ~disabled_level:0
        ~outage:(Duration.hours 1.) Baseline.scenario_array);
  check_raises_invalid "out of range" (fun () ->
      Degraded.evaluate Baseline.design ~disabled_level:9
        ~outage:(Duration.hours 1.) Baseline.scenario_array)

let prop_degraded_never_better =
  QCheck.Test.make ~name:"outages never reduce worst-case loss" ~count:30
    QCheck.(pair (int_range 1 3) (float_range 0. 500.))
    (fun (level, outage_h) ->
      let r =
        Degraded.evaluate Baseline.design ~disabled_level:level
          ~outage:(Duration.hours outage_h) Baseline.scenario_array
      in
      Data_loss.compare_loss r.Degraded.baseline_loss.Data_loss.loss
        r.Degraded.data_loss.Data_loss.loss
      <= 0)

(* --- Portfolio --- *)

(* A second, smaller workload sharing the baseline hardware. *)
let mail_workload =
  Workload.make ~name:"mail" ~data_capacity:(Size.gib 200.)
    ~avg_access_rate:(Rate.kib_per_sec 600.)
    ~avg_update_rate:(Rate.kib_per_sec 400.) ~burst_multiplier:6.
    ~batch_curve:
      (Batch_curve.of_samples
         [
           (Duration.minutes 1., Rate.kib_per_sec 380.);
           (Duration.hours 12., Rate.kib_per_sec 150.);
           (Duration.weeks 1., Rate.kib_per_sec 120.);
         ])

let mail_design =
  let hierarchy =
    Hierarchy.make_exn
      [
        {
          Hierarchy.technique = Technique.Primary_copy { raid = Raid.Raid1 };
          device = Baseline.disk_array;
          link = None;
        };
        {
          technique =
            Technique.Split_mirror
              (Schedule.simple ~acc:(Duration.hours 12.) ~retention_count:2 ());
          device = Baseline.disk_array;
          link = None;
        };
        {
          technique =
            Technique.Backup
              (Schedule.simple ~acc:(Duration.weeks 1.)
                 ~prop:(Duration.hours 24.) ~hold:(Duration.hours 1.)
                 ~retention_count:4 ());
          device = Baseline.tape_library;
          link = Some Baseline.san;
        };
      ]
  in
  Design.make ~name:"mail" ~workload:mail_workload ~hierarchy
    ~business:Baseline.business ()

let portfolio = Portfolio.make_exn [ Baseline.design; mail_design ]

let test_portfolio_validation () =
  (match Portfolio.make [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty portfolio accepted");
  (match Portfolio.make [ Baseline.design; Baseline.design ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate names accepted");
  (* Same device name, different configuration. *)
  let conflicting_array =
    Device.make ~name:"disk-array" ~location:Baseline.primary_site
      ~max_capacity_slots:8 ~slot_capacity:(Size.gib 73.) ()
  in
  let tiny =
    Design.make ~name:"tiny" ~workload:mail_workload
      ~hierarchy:
        (Hierarchy.make_exn
           [
             {
               Hierarchy.technique = Technique.Primary_copy { raid = Raid.Raid0 };
               device = conflicting_array;
               link = None;
             };
           ])
      ~business:Baseline.business ()
  in
  match Portfolio.make [ Baseline.design; tiny ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "conflicting device specs accepted"

let test_portfolio_utilization_adds_up () =
  let combined = Portfolio.utilization portfolio in
  let array_util =
    List.find (fun ((d : Device.t), _) -> d.Device.name = "disk-array") combined
    |> snd
  in
  let solo =
    Device.utilization Baseline.disk_array
      (Design.demands_on Baseline.design Baseline.disk_array)
  in
  Alcotest.(check bool) "combined exceeds solo" true
    (array_util.Device.capacity_fraction > solo.Device.capacity_fraction);
  (* cello (87.3%) + mail (3 raid-1 copies of 300 GiB + snapshots) must
     stay under 100%: 87.3 + 9.6 = 96.9. *)
  Alcotest.(check bool) "still fits" true
    (array_util.Device.capacity_fraction < 1.);
  Alcotest.(check int) "nothing overcommitted" 0
    (List.length (Portfolio.overcommitted portfolio))

let starts_with_mail t = String.length t >= 5 && String.sub t 0 5 = "mail:"

let test_portfolio_member_sees_neighbours () =
  let loaded = Option.get (Portfolio.member portfolio "baseline") in
  let u = Utilization.compute loaded in
  let array =
    List.find
      (fun (d : Utilization.device_report) ->
        d.Utilization.device.Device.name = "disk-array")
      u.Utilization.devices
  in
  let techs =
    List.map (fun s -> s.Utilization.technique) array.Utilization.shares
  in
  Alcotest.(check bool) "mail traffic visible" true
    (List.exists starts_with_mail techs)

let test_portfolio_shared_fixed_costs () =
  let per_member, total = Portfolio.outlays portfolio in
  let solo_baseline = (Cost.outlays Baseline.design).Cost.total in
  let solo_mail = (Cost.outlays mail_design).Cost.total in
  (* The portfolio total must be below the sum of standalone outlays: the
     array and library fixed costs are paid once, not twice. *)
  Alcotest.(check bool) "sharing saves fixed costs" true
    (Money.to_usd total
    < Money.to_usd solo_baseline +. Money.to_usd solo_mail -. 1.);
  Alcotest.(check int) "two members" 2 (List.length per_member);
  (* First member pays full freight. *)
  close ~tol:1e-9 "owner pays full" (Money.to_usd solo_baseline)
    (Money.to_usd (List.assoc "baseline" per_member))

let test_portfolio_recovery_sees_contention () =
  (* The mail design's array-failure recovery streams from the shared tape
     library while cello's backups continue: available bandwidth is lower
     than standalone, so recovery is slower. *)
  let loaded_mail = Option.get (Portfolio.member portfolio "mail") in
  let standalone = Evaluate.run mail_design Baseline.scenario_array in
  let shared = Evaluate.run loaded_mail Baseline.scenario_array in
  Alcotest.(check bool) "contention slows recovery" true
    (Duration.compare shared.Evaluate.recovery_time
       standalone.Evaluate.recovery_time
    > 0)

(* --- Summary_report --- *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  nl = 0 || scan 0

let test_summary_report () =
  let doc =
    Summary_report.markdown
      ~risk:
        [
          { Risk.scenario = Baseline.scenario_object; frequency_per_year = 12. };
          { Risk.scenario = Baseline.scenario_array; frequency_per_year = 0.2 };
        ]
      Baseline.design
      [
        ("user error", Baseline.scenario_object);
        ("array failure", Baseline.scenario_array);
      ]
  in
  List.iter
    (fun needle ->
      if not (contains doc needle) then
        Alcotest.failf "report missing %S" needle)
    [
      "# Dependability report: baseline";
      "## Workload";
      "## Protection hierarchy";
      "## Normal-mode utilization";
      "## Failure scenarios";
      "## Annual outlays";
      "## Risk";
      "split mirror";
      "87.3%";
      "Monte-Carlo";
    ];
  check_raises_invalid "no scenarios" (fun () ->
      Summary_report.markdown Baseline.design [])

let test_summary_report_flags_invalid () =
  (* An overcommitted design must be flagged, not silently reported. *)
  let big = Workload.grow Cello.workload ~factor:2. in
  let d =
    Design.make ~name:"too-big" ~workload:big
      ~hierarchy:Baseline.design.Design.hierarchy ~business:Baseline.business
      ()
  in
  let doc =
    Summary_report.markdown d [ ("array", Baseline.scenario_array) ]
  in
  Alcotest.(check bool) "flagged" true (contains doc "INVALID DESIGN")

(* --- Explain --- *)

let test_explain_site () =
  let text = Explain.narrative Baseline.design Baseline.scenario_site in
  List.iter
    (fun needle ->
      if not (contains text needle) then
        Alcotest.failf "narrative missing %S" needle)
    [
      "site primary";
      "Surviving levels: 3 (vaulting)";
      "worst-case loss 8.5 wk";
      "media in transit 24.0 hr";
      "bottleneck: media transit";
      "bottleneck: data transfer";
      "Total recovery time: 25.7 hr";
    ]

let test_explain_primary_intact () =
  let text =
    Explain.narrative Baseline.design
      (Scenario.now (Location.Device "tape-library"))
  in
  Alcotest.(check bool) "no recovery needed" true
    (contains text "no recovery is needed")

let test_explain_total_loss () =
  let d = Whatif.async_mirror ~links:1 in
  let text = Explain.narrative d Baseline.scenario_object in
  Alcotest.(check bool) "object lost" true (contains text "the object")

(* --- Sensitivity --- *)

let vault_design acc_weeks =
  let vault_schedule =
    Schedule.simple
      ~acc:(Duration.weeks acc_weeks)
      ~prop:(Duration.hours 24.) ~hold:(Duration.hours 12.)
      ~retention_count:(max 1 (int_of_float (ceil (156. /. acc_weeks))))
      ()
  in
  let hierarchy =
    Hierarchy.make_exn
      [
        {
          Hierarchy.technique = Technique.Primary_copy { raid = Raid.Raid1 };
          device = Baseline.disk_array;
          link = None;
        };
        {
          technique = Technique.Split_mirror Baseline.split_mirror_schedule;
          device = Baseline.disk_array;
          link = None;
        };
        {
          technique = Technique.Backup Baseline.backup_schedule;
          device = Baseline.tape_library;
          link = Some Baseline.san;
        };
        {
          technique = Technique.Vaulting vault_schedule;
          device = Baseline.vault;
          link = Some Baseline.air_shipment;
        };
      ]
  in
  Design.make
    ~name:(Printf.sprintf "vault %.0fwk" acc_weeks)
    ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()

let test_sensitivity_vault_sweep () =
  let points =
    Storage_optimize.Sensitivity.sweep vault_design ~values:[ 1.; 2.; 4. ]
      Baseline.scenario_site
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  let losses =
    List.map
      (fun (p : Storage_optimize.Sensitivity.point) ->
        match p.Storage_optimize.Sensitivity.loss with
        | Data_loss.Updates d -> Duration.to_hours d
        | Data_loss.Entire_object -> infinity)
      points
  in
  (* Site-disaster loss grows with the vault accumulation window
     (Table 7's weekly-vault improvement, generalized). *)
  Alcotest.(check bool) "monotone in accW" true
    (losses = List.sort Float.compare losses);
  close "weekly matches Table 7" 253. (List.nth losses 0)

let test_sensitivity_crossover () =
  (* Mirror-link sweep: with few links the tape design has lower outlays;
     find where mirroring's outlays overtake it. *)
  let mirror links = Whatif.async_mirror ~links:(int_of_float links) in
  let tape _ = Baseline.design in
  let crossing =
    Storage_optimize.Sensitivity.crossover mirror ~values:[ 1.; 2.; 4.; 10. ]
      Baseline.scenario_array
      ~metric:(fun p -> Money.to_usd p.Storage_optimize.Sensitivity.outlays)
      ~against:tape
  in
  match crossing with
  | Some v -> Alcotest.(check bool) "crossover beyond one link" true (v >= 2.)
  | None -> Alcotest.fail "expected an outlay crossover"

let test_sensitivity_validation () =
  check_raises_invalid "no values" (fun () ->
      Storage_optimize.Sensitivity.sweep vault_design ~values:[]
        Baseline.scenario_site)

let suite =
  [
    ( "model.risk",
      [
        Alcotest.test_case "expectation arithmetic" `Quick test_risk_assessment;
        Alcotest.test_case "design ranking" `Quick test_risk_ranking;
        Alcotest.test_case "validation" `Quick test_risk_validation;
        Alcotest.test_case "monte carlo distribution" `Quick
          test_risk_monte_carlo;
        Alcotest.test_case "monte carlo lambda regimes" `Quick
          test_risk_monte_carlo_lambda_regimes;
        Alcotest.test_case "monte carlo large-lambda regression" `Quick
          test_risk_monte_carlo_large_lambda_regression;
      ] );
    ( "model.degraded",
      [
        Alcotest.test_case "backup outage adds loss" `Quick
          test_degraded_backup_outage;
        Alcotest.test_case "unaffected source" `Quick test_degraded_source_unaffected;
        Alcotest.test_case "site during vault outage" `Quick
          test_degraded_site_with_vault_outage;
        Alcotest.test_case "frozen mirror serves staler" `Quick
          test_degraded_frozen_mirror_staler;
        Alcotest.test_case "validation" `Quick test_degraded_validation;
        qcheck prop_degraded_never_better;
      ] );
    ( "model.portfolio",
      [
        Alcotest.test_case "validation" `Quick test_portfolio_validation;
        Alcotest.test_case "combined utilization" `Quick
          test_portfolio_utilization_adds_up;
        Alcotest.test_case "members see neighbours" `Quick
          test_portfolio_member_sees_neighbours;
        Alcotest.test_case "shared fixed costs" `Quick
          test_portfolio_shared_fixed_costs;
        Alcotest.test_case "recovery contention" `Quick
          test_portfolio_recovery_sees_contention;
      ] );
    ( "model.explain",
      [
        Alcotest.test_case "site narrative" `Quick test_explain_site;
        Alcotest.test_case "primary intact" `Quick test_explain_primary_intact;
        Alcotest.test_case "total loss" `Quick test_explain_total_loss;
      ] );
    ( "model.summary_report",
      [
        Alcotest.test_case "full report" `Quick test_summary_report;
        Alcotest.test_case "flags invalid designs" `Quick
          test_summary_report_flags_invalid;
      ] );
    ( "optimize.sensitivity",
      [
        Alcotest.test_case "vault window sweep" `Quick test_sensitivity_vault_sweep;
        Alcotest.test_case "link-count crossover" `Quick test_sensitivity_crossover;
        Alcotest.test_case "validation" `Quick test_sensitivity_validation;
      ] );
  ]
