(* Paper-artifact and gate driver: regenerates every table and figure of
   the paper's evaluation from the framework's own outputs, checks the
   simulator against the model, and runs the deterministic benchmarks and
   the perf-regression gate. Timing the hot paths in calibrated units is
   perfbench's job (perfbench/README.md); this driver keeps only the wall
   clock its gates need.

   Usage:
     dune exec bench/main.exe                 # all artifacts + micro-benches
     dune exec bench/main.exe table5 [...]    # named artifacts
     dune exec bench/main.exe validate        # simulator-vs-model check
     dune exec bench/main.exe pareto          # design-space search listing
     dune exec bench/main.exe ablate          # the seven ablations
     dune exec bench/main.exe micro           # micro-benchmarks only
     dune exec bench/main.exe stream          # streaming-search memory contract
     dune exec bench/main.exe fleet           # fleet reports, jobs-invariance
     dune exec bench/main.exe solver [smoke]  # solver-vs-grid parity
     dune exec bench/main.exe --check [--smoke]  # perf-regression gate

   The stream, fleet, solver and --check modes write BENCH_<mode>.json
   into the working directory. An unknown mode or artifact exits 2. *)

open Bechamel
open Toolkit
open Storage_units
open Storage_model
open Storage_presets

(* --- artifact regeneration --- *)

let print_artifact render =
  print_endline (render ());
  print_newline ()

(* --- simulator-vs-model validation --- *)

let validate () =
  print_endline "Simulator-vs-model validation (baseline, 14 failure phases):";
  let config = { Storage_sim.Sim.warmup = Duration.weeks 12.; outage = None; record_events = false } in
  let ok = ref true in
  List.iter
    (fun scenario ->
      let model = Evaluate.run Baseline.design scenario in
      let worst =
        match model.Evaluate.data_loss.Data_loss.loss with
        | Data_loss.Updates d -> Duration.to_seconds d
        | Data_loss.Entire_object -> infinity
      in
      let offsets =
        List.init 14 (fun i -> Duration.hours (float_of_int i *. 12.))
      in
      let runs =
        Storage_sim.Sim.sweep_failure_phase ~config Baseline.design scenario
          ~offsets
      in
      let max_dl =
        List.fold_left
          (fun acc (m : Storage_sim.Sim.measured) ->
            match m.Storage_sim.Sim.data_loss with
            | Data_loss.Updates d -> Float.max acc (Duration.to_seconds d)
            | Data_loss.Entire_object -> acc)
          0. runs
      in
      let pass = max_dl <= worst +. 1. in
      if not pass then ok := false;
      Printf.printf "  %-18s max sim DL %8.1f hr <= model %8.1f hr  %s\n"
        (Fmt.str "%a" Storage_device.Location.pp_scope
           scenario.Scenario.scope)
        (max_dl /. 3600.) (worst /. 3600.)
        (if pass then "ok" else "VIOLATION"))
    Baseline.scenarios;
  print_endline (if !ok then "validation passed" else "validation FAILED");
  if not !ok then exit 1

(* --- design-space search ablation --- *)

(* The default `ssdep optimize` listing, through the same request. *)
let pareto () =
  Storage_engine.with_engine (fun engine ->
      print_string
        (Optimize_request.listing ~engine
           {
             Optimize_request.rto = None;
             rpo = None;
             top_k = None;
             grid_scale = 1;
           }))

(* --- ablations: the design choices DESIGN.md calls out --- *)

(* 1. The devBW erratum: the paper prints max(enclBW, slots*slotBW); its
   case study requires min. Show what each formula predicts. *)
let ablate_devbw () =
  print_endline "Ablation 1: devBW = min vs max of enclosure/slot bandwidth";
  let report device used_mib =
    let open Storage_device in
    let slots =
      float_of_int device.Device.max_bandwidth_slots
      *. Rate.to_mib_per_sec device.Device.slot_bandwidth
    in
    let encl = Rate.to_mib_per_sec device.Device.enclosure_bandwidth in
    Printf.printf
      "  %-13s demand %6.1f MiB/s  min-rule %6.1f MiB/s -> %5.2f%%   \
       max-rule %6.1f MiB/s -> %5.2f%%\n"
      device.Device.name used_mib (Float.min encl slots)
      (100. *. used_mib /. Float.min encl slots)
      (Float.max encl slots)
      (100. *. used_mib /. Float.max encl slots)
  in
  let u = Utilization.compute Baseline.design in
  List.iter
    (fun (d : Utilization.device_report) ->
      let open Storage_device in
      if not (Device.is_capacity_only d.Utilization.device) then
        report d.Utilization.device
          (Rate.to_mib_per_sec d.Utilization.total.Device.bandwidth_used))
    u.Utilization.devices;
  print_endline
    "  (Table 5 prints 2.4% and 3.4%: only the min rule reproduces them.)\n"

(* 2. Recovery semantics: provisioning overlapped with the transfer (the
   reading Table 7 requires) vs strictly serialized (what the simulator
   executes). *)
let ablate_recovery_semantics () =
  print_endline
    "Ablation 2: recovery-time semantics (parallel vs strict provisioning)";
  let strict_total (t : Recovery_time.timeline) =
    List.fold_left
      (fun rt (h : Recovery_time.hop) ->
        let arrival = Duration.add rt h.Recovery_time.transit in
        Duration.sum
          [
            Duration.max arrival h.Recovery_time.par_fix;
            h.Recovery_time.ser_fix;
            h.Recovery_time.transfer;
          ])
      Duration.zero t.Recovery_time.hops
  in
  List.iter
    (fun (name, design, scenario) ->
      let r = Evaluate.run design scenario in
      match r.Evaluate.recovery with
      | Some t ->
        Printf.printf "  %-28s parallel %7.2f hr   strict %7.2f hr\n" name
          (Duration.to_hours t.Recovery_time.total)
          (Duration.to_hours (strict_total t))
      | None -> ())
    [
      ("baseline, array", Baseline.design, Baseline.scenario_array);
      ("baseline, site", Baseline.design, Baseline.scenario_site);
      ("asyncB x1, site", Whatif.async_mirror ~links:1, Baseline.scenario_site);
      ("asyncB x10, site", Whatif.async_mirror ~links:10, Baseline.scenario_site);
    ];
  print_endline
    "  (Table 7's 21.7 hr single-link site cell matches the parallel form;\n\
    \   the simulator executes the strict form.)\n"

(* 3. Vault accumulation window sweep (generalizes the weekly-vault
   what-if). *)
let vault_design acc_weeks =
  let open Storage_protection in
  let open Storage_hierarchy in
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
    ~name:(Printf.sprintf "vault/%.0fwk" acc_weeks)
    ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()

let ablate_vault_window () =
  print_endline
    "Ablation 3: vault accumulation window vs site-disaster loss and cost";
  Storage_optimize.Sensitivity.sweep vault_design ~values:[ 1.; 2.; 4.; 8. ]
    Baseline.scenario_site
  |> List.iter (fun p ->
         Fmt.pr "  %a@." Storage_optimize.Sensitivity.pp_point p);
  print_newline ()

(* 4. Mirror link-count sweep: where does adding links stop paying? *)
let ablate_links () =
  print_endline "Ablation 4: OC-3 link count vs recovery time and total cost";
  List.iter
    (fun links ->
      let d = Whatif.async_mirror ~links in
      let array = Evaluate.run d Baseline.scenario_array in
      let site = Evaluate.run d Baseline.scenario_site in
      Printf.printf
        "  %2d links: array RT %6.2f hr, site RT %6.2f hr, outlays %s, worst \
         total %s\n"
        links
        (Duration.to_hours array.Evaluate.recovery_time)
        (Duration.to_hours site.Evaluate.recovery_time)
        (Money.to_string array.Evaluate.outlays.Cost.total)
        (Money.to_string
           (Money.max array.Evaluate.total_cost site.Evaluate.total_cost)))
    [ 1; 2; 3; 4; 6; 8; 10 ];
  print_newline ()

(* 5. RAID organization of the primary array. *)
let ablate_raid () =
  print_endline "Ablation 5: primary-array RAID organization";
  let open Storage_protection in
  let open Storage_hierarchy in
  List.iter
    (fun raid ->
      let hierarchy =
        Hierarchy.make_exn
          [
            {
              Hierarchy.technique = Technique.Primary_copy { raid };
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
          ]
      in
      let d =
        Design.make
          ~name:(Raid.to_string raid)
          ~workload:Cello.workload ~hierarchy ~business:Baseline.business ()
      in
      let u = Utilization.compute d in
      let o = Cost.outlays d in
      Printf.printf
        "  %-10s array capacity %5.1f%%  outlays %s  disk-failure tolerant: %b\n"
        (Raid.to_string raid)
        (100. *. u.Utilization.system_capacity_fraction)
        (Money.to_string o.Cost.total)
        (Raid.tolerates_disk_failure raid))
    [ Raid.Raid0; Raid.Raid1; Raid.Raid5 { stripe_width = 6 }; Raid.Raid10 ];
  print_newline ()

(* 6. Workload growth: when does the baseline hardware stop fitting? *)
let ablate_growth () =
  print_endline "Ablation 6: workload growth vs baseline hardware";
  List.iter
    (fun factor ->
      let workload = Storage_workload.Workload.grow Cello.workload ~factor in
      let d =
        Design.make
          ~name:(Printf.sprintf "cello x%.2f" factor)
          ~workload ~hierarchy:Baseline.design.Design.hierarchy
          ~business:Baseline.business ()
      in
      let u = Utilization.compute d in
      Printf.printf "  x%.2f: array cap %5.1f%%, tape cap %5.1f%%  %s\n" factor
        (100.
        *. (List.hd u.Utilization.devices).Utilization.total
             .Storage_device.Device.capacity_fraction)
        (100.
        *. (List.nth u.Utilization.devices 1).Utilization.total
             .Storage_device.Device.capacity_fraction)
        (match Design.validate d with
        | Ok () -> "fits"
        | Error (e :: _) -> "OVERCOMMITTED: " ^ e
        | Error [] -> "fits"))
    [ 0.5; 1.0; 1.1; 1.15; 1.25; 1.5; 2.0 ];
  print_newline ()

(* 7. Tail risk: expectation vs Monte-Carlo distribution. *)
let ablate_tail_risk () =
  print_endline
    "Ablation 7: expected vs sampled 10-year cost (tail risk per design)";
  let weighted =
    [
      { Risk.scenario = Baseline.scenario_object; frequency_per_year = 12. };
      { Risk.scenario = Baseline.scenario_array; frequency_per_year = 0.2 };
      { Risk.scenario = Baseline.scenario_site; frequency_per_year = 0.01 };
    ]
  in
  List.iter
    (fun (name, d) ->
      let expectation = Risk.assess d weighted in
      let dist =
        Risk.monte_carlo ~samples:4000 d weighted ~horizon_years:10.
      in
      Printf.printf "  %-32s E %-9s mc-mean %-9s p95 %-9s p99 %s\n" name
        (Money.to_string
           (Money.scale 10. expectation.Risk.expected_annual_cost))
        (Money.to_string dist.Risk.mean)
        (Money.to_string dist.Risk.p95)
        (Money.to_string dist.Risk.p99))
    [
      ("baseline", Baseline.design);
      ("weekly vault, daily F, snapshot", Whatif.weekly_vault_daily_full_snapshot);
      ("asyncB mirror, 2 links", Whatif.async_mirror ~links:2);
    ];
  print_newline ()

let ablate () =
  ablate_devbw ();
  ablate_recovery_semantics ();
  ablate_vault_window ();
  ablate_links ();
  ablate_raid ();
  ablate_growth ();
  ablate_tail_risk ()

(* --- shared measurements --- *)

(* The hardware failures every search below is scored against. *)
let scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]

(* The valid candidates of [Candidate.scaled_space ~scale], streamed. *)
let grid scale =
  Storage_optimize.Candidate.enumerate (Whatif.search_kit ())
    (Storage_optimize.Candidate.scaled_space ~scale)

let time_best_of ?(repeats = 3) f =
  let rec go best n =
    if n = 0 then best
    else begin
      let t0 = Unix.gettimeofday () in
      ignore (Sys.opaque_identity (f ()));
      let dt = Unix.gettimeofday () -. t0 in
      go (Float.min best dt) (n - 1)
    end
  in
  go infinity repeats

(* [peak_live_words run cs] is [run cs] and the peak of
   [Gc.stat().live_words] right after a forced major collection, sampled
   before the run, every 1024 candidates as [cs] streams by, and once
   more with the result still live, which is what exposes a materialized
   run's O(grid) retention. [Gc.top_heap_words] would be the obvious
   candidate but is useless here: it is monotonic over the process
   lifetime and, on OCaml 5.1, tracks the allocator's sawtooth high-water
   mark — the runtime has no heap compaction, so the number reflects
   allocation churn and fragmentation, not the working set. *)
let peak_live_words run cs =
  let peak = ref 0 in
  let sample () =
    Gc.full_major ();
    peak := Int.max !peak (Gc.stat ()).Gc.live_words
  in
  sample ();
  let result =
    run (Seq.mapi (fun i d -> if i mod 1024 = 0 then sample (); d) cs)
  in
  sample ();
  (result, !peak)

(* The top-10 streaming search the stream mode and gates 1-3 measure. *)
let search ~jobs cs =
  Storage_optimize.Engine.with_engine ~jobs (fun engine ->
      Storage_optimize.Search.run ~engine ~top_k:10 cs scenarios)

(* --- streaming-pipeline benchmark --- *)

(* The memory story behind the streaming search: [Search.run ~top_k]
   holds one pool window, the slim frontier and k survivors, O(window +
   frontier + k), never the grid, while the materialized path retains
   every summary. The serial run over ~1.3 x 10^5 candidates must stay
   under an absolute ceiling: 1.5x its measured peak (126,448 words),
   which a frontier that kept its designs' derived tables through its
   transient bulge exceeds five times over (638k words). Peaks are
   {!peak_live_words}, deterministic for a given allocation pattern. *)
let stream_large_peak_ceiling = 189_000

let stream_bench () =
  let module J = Storage_report.Json in
  let module Search = Storage_optimize.Search in
  (* Smallest scale clearing 10^5 candidates after validity filtering. *)
  let large_scale =
    let rec find s = if Seq.length (grid s) >= 100_000 then s else find (s + 1) in
    find 7
  in
  let small = grid 2 in
  let large = grid large_scale in
  let n_small = Seq.length small and n_large = Seq.length large in
  Printf.printf
    "Streaming pipeline benchmark: %d vs %d candidates x %d scenarios\n"
    n_small n_large (List.length scenarios);
  let measure name run cs =
    let result, peak = peak_live_words run cs in
    Printf.printf "  %-42s peak live %7d kwords\n" name (peak / 1000);
    (result, peak)
  in
  let r_small, peak_small =
    measure (Printf.sprintf "streaming, %d candidates, serial" n_small)
      (search ~jobs:1) small
  in
  let _, peak_large =
    measure (Printf.sprintf "streaming, %d candidates, serial" n_large)
      (search ~jobs:1) large
  in
  let _, peak_large4 =
    measure (Printf.sprintf "streaming, %d candidates, 4 domains" n_large)
      (search ~jobs:4) large
  in
  (* The materialized oracle on the small grid: byte-identical frontier
     and best, O(grid) retention. (Running it over the large grid would
     materialize every summary — the cost the streaming path removes.) *)
  let r_mat, peak_mat =
    measure (Printf.sprintf "materialized, %d candidates, serial" n_small)
      (fun cs -> Search.run_materialized (List.of_seq cs) scenarios)
      small
  in
  let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
  let identical =
    bytes r_small.Search.frontier = bytes r_mat.Search.frontier
    && bytes r_small.Search.best = bytes r_mat.Search.best
  in
  let within_ceiling = peak_large <= stream_large_peak_ceiling in
  Printf.printf "  frontier/best identical to materialized: %b\n" identical;
  Printf.printf "  large-grid serial peak within %d words: %b\n"
    stream_large_peak_ceiling within_ceiling;
  let run name candidates jobs peak =
    J.Obj
      [
        ("run", J.String name);
        ("candidates", J.Int candidates);
        ("jobs", J.Int jobs);
        ("peak_live_words", J.Int peak);
      ]
  in
  let json =
    J.Obj
      [
        ("mode", J.String "stream");
        ("scenarios", J.Int (List.length scenarios));
        ("large_scale", J.Int large_scale);
        ( "runs",
          J.List
            [
              run "streaming_small_serial" n_small 1 peak_small;
              run "streaming_large_serial" n_large 1 peak_large;
              run "streaming_large_4domains" n_large 4 peak_large4;
              run "materialized_small_serial" n_small 1 peak_mat;
            ] );
        ("frontier_best_identical_to_materialized", J.Bool identical);
        ("large_peak_ceiling_words", J.Int stream_large_peak_ceiling);
        ("large_peak_within_ceiling", J.Bool within_ceiling);
      ]
  in
  Out_channel.with_open_text "BENCH_stream.json" (fun oc ->
      output_string oc (J.to_string_pretty json);
      output_char oc '\n');
  print_endline "  wrote BENCH_stream.json";
  if not (identical && within_ceiling) then exit 1

(* --- fleet Monte Carlo benchmark --- *)

(* [bench/main.exe fleet]: the fleet-scale availability record — 1000
   five-year trials per preset design, with the full report — written to
   BENCH_fleet.json. Each design also runs at 4 domains, and the two
   reports must render to identical JSON (the jobs-invariance contract);
   the record carries the comparison. Fleet throughput is perfbench's
   [fleet_tape] and [fleet_mirror], and the fleet-trials-per-sec gate of
   [--check]. *)

let fleet_designs =
  [
    ("baseline", Baseline.design);
    ("async_mirror_x10", Whatif.async_mirror ~links:10);
    ("erasure_6_of_9", Whatif.erasure_coded ~fragments:9 ~required:6 ~links:10);
  ]

let fleet_bench () =
  let module J = Storage_report.Json in
  let module Fleet = Storage_fleet.Fleet in
  let config = Fleet.config ~trials:1000 ~horizon_years:5. () in
  Printf.printf
    "Fleet Monte Carlo benchmark: %d trials x %.0f-year horizon per design\n"
    config.Fleet.trials
    (Duration.to_years config.Fleet.horizon);
  let ok = ref true in
  let runs =
    List.map
      (fun (name, d) ->
        let run ~jobs =
          Storage_engine.with_engine ~jobs (fun engine ->
              Fleet.run ~engine ~config d)
        in
        let serial = run ~jobs:1 in
        let identical =
          String.equal
            (J.to_string (Fleet.to_json serial))
            (J.to_string (Fleet.to_json (run ~jobs:4)))
        in
        if not identical then ok := false;
        Printf.printf "  %-18s serial and 4-domain reports %s\n" name
          (if identical then "identical" else "DIFFER: JOBS-VARIANT!");
        J.Obj
          [
            ("design", J.String name);
            ("jobs_invariant", J.Bool identical);
            ("report", Fleet.to_json serial);
          ])
      fleet_designs
  in
  let json =
    J.Obj
      [
        ("mode", J.String "fleet");
        ("trials", J.Int config.Fleet.trials);
        ("horizon_years", J.Float (Duration.to_years config.Fleet.horizon));
        ("seed", J.String (Int64.to_string config.Fleet.seed));
        ("runs", J.List runs);
      ]
  in
  Out_channel.with_open_text "BENCH_fleet.json" (fun oc ->
      output_string oc (J.to_string_pretty json);
      output_char oc '\n');
  print_endline "  wrote BENCH_fleet.json";
  if not !ok then exit 1

(* --- metaheuristic solver benchmark --- *)

module Solver = Storage_optimize.Solver

(* One solver method over tier [b]'s grid, with its wall time. *)
let solve ~engine (b : Baselines.tier) method_ ?budget () =
  let t0 = Unix.gettimeofday () in
  let r =
    Solver.run ~engine ?budget ~seed:b.Baselines.solver_seed ~method_
      (Whatif.search_kit ())
      (Storage_optimize.Candidate.scaled_space ~scale:b.Baselines.grid_scale)
      scenarios
  in
  (r, Unix.gettimeofday () -. t0)

(* The exhaustive grid, then annealing budgeted at
   [solver_budget_fraction] of the candidates the grid evaluated: the
   measurement behind both the solver mode and the solver-vs-grid gate.
   Returns the two timed runs and the budget. *)
let grid_then_anneal ~engine b =
  let ((grid, _) as timed_grid) = solve ~engine b Solver.Grid () in
  let budget =
    Int.max 1
      (int_of_float
         (b.Baselines.solver_budget_fraction
         *. float_of_int grid.Solver.stats.Solver.evaluations))
  in
  (timed_grid, budget, solve ~engine b Solver.Anneal ~budget ())

let best_total (r : Solver.result) =
  Option.map
    (fun (s : Storage_optimize.Objective.summary) ->
      s.Storage_optimize.Objective.worst_total_cost)
    r.Solver.best

(* Did [r] land on the grid optimum's total cost exactly? *)
let matches_grid ~grid r =
  Option.compare Money.compare (best_total r) (best_total grid) = 0

(* [bench/main.exe solver [smoke]]: run all three solver methods over the
   tier grid and report how much of the exhaustive sweep each one needed
   to land on the same optimum. Writes BENCH_solver.json; exits 1 if
   anneal or b&b misses the optimum. *)
let solver_bench ~smoke () =
  let module J = Storage_report.Json in
  let b = if smoke then Baselines.smoke else Baselines.full in
  let points =
    Storage_optimize.Candidate.point_count
      (Storage_optimize.Candidate.scaled_space ~scale:b.Baselines.grid_scale)
  in
  let jobs = Int.min 4 (Storage_parallel.Pool.default_jobs ()) in
  Printf.printf
    "Solver benchmark, %s tier: %d grid points x %d scenarios, seed 0x%Lx, \
     %d job(s)\n"
    b.Baselines.name points (List.length scenarios) b.Baselines.solver_seed
    jobs;
  Storage_engine.with_engine ~jobs (fun engine ->
      let (grid, t_grid), budget, (anneal, t_anneal) =
        grid_then_anneal ~engine b
      in
      let bnb, t_bnb = solve ~engine b Solver.Bnb () in
      let grid_evals = grid.Solver.stats.Solver.evaluations in
      let ok = ref true in
      let row name (r : Solver.result) seconds =
        let evals = r.Solver.stats.Solver.evaluations in
        let fraction = float_of_int evals /. float_of_int grid_evals in
        let matched = matches_grid ~grid r in
        if not matched then ok := false;
        Printf.printf
          "  %-7s best %s  %7d evaluations (%5.1f%% of grid)  %7.2f s%s\n"
          name
          (match r.Solver.best with
          | None -> "-- none feasible --"
          | Some s ->
            Fmt.str "%-32s %a"
              s.Storage_optimize.Objective.design.Design.name
              Money.pp s.Storage_optimize.Objective.worst_total_cost)
          evals (100. *. fraction) seconds
          (if matched then "" else "  MISSED-OPTIMUM!");
        J.Obj
          [
            ("method", J.String (Solver.method_name r.Solver.method_));
            ("budget", J.Int r.Solver.budget);
            ("evaluations", J.Int evals);
            ("fraction_of_grid", J.Float fraction);
            ("pruned_cost", J.Int r.Solver.stats.Solver.pruned_cost);
            ( "pruned_infeasible",
              J.Int r.Solver.stats.Solver.pruned_infeasible );
            ("bound_probes", J.Int r.Solver.stats.Solver.probes);
            ("seconds", J.Float seconds);
            ("matched_grid", J.Bool matched);
            ( "best_total_usd",
              match best_total r with
              | None -> J.Null
              | Some m -> J.Float (Money.to_usd m) );
          ]
      in
      let row_grid = row "grid" grid t_grid in
      let row_anneal = row "anneal" anneal t_anneal in
      let row_bnb = row "bnb" bnb t_bnb in
      let rows = [ row_grid; row_anneal; row_bnb ] in
      let json =
        J.Obj
          [
            ("mode", J.String "solver");
            ("tier", J.String b.Baselines.name);
            ("grid_scale", J.Int b.Baselines.grid_scale);
            ("grid_points", J.Int points);
            ("grid_evaluations", J.Int grid_evals);
            ("seed", J.String (Printf.sprintf "0x%Lx" b.Baselines.solver_seed));
            ( "budget_fraction",
              J.Float b.Baselines.solver_budget_fraction );
            ("anneal_budget", J.Int budget);
            ("jobs", J.Int jobs);
            ("methods", J.List rows);
          ]
      in
      Out_channel.with_open_text "BENCH_solver.json" (fun oc ->
          output_string oc (J.to_string_pretty json);
          output_char oc '\n');
      print_endline "  wrote BENCH_solver.json";
      if not !ok then exit 1)

(* --- evaluation-service load --- *)

(* What the serve-warm-speedup gate of [--check] measures: an in-process
   daemon on an ephemeral port, /evaluate hammered from concurrent client
   domains, against the cold single-shot cost of spawning
   `ssdep evaluate --json` per request (binary located via SSDEP_BIN).
   "Warm" is the running process: the daemon keeps no evaluation cache,
   so each request parses and evaluates its body as the CLI does, and
   the gate measures what a long-lived process saves over process
   start-up. perfbench's [serve] workload times the daemon in calibrated
   units. *)

(* One request per connection, mirroring the server's
   [Connection: close] discipline. Returns the status code (0 when the
   response has none). *)
let http_request ~port ~meth ~path ~body =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req =
        Printf.sprintf
          "%s %s HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: %d\r\n\r\n%s"
          meth path (String.length body) body
      in
      let bytes = Bytes.of_string req in
      let n = Bytes.length bytes in
      let off = ref 0 in
      while !off < n do
        off := !off + Unix.write fd bytes !off (n - !off)
      done;
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec drain () =
        let got = Unix.read fd chunk 0 4096 in
        if got > 0 then begin
          Buffer.add_subbytes buf chunk 0 got;
          drain ()
        end
      in
      drain ();
      let raw = Buffer.contents buf in
      (* "HTTP/1.1 NNN ..." *)
      if String.length raw >= 12 then
        Option.value ~default:0 (int_of_string_opt (String.sub raw 9 3))
      else 0)

(* The workhorse request body: the baseline case study with its two
   hardware-failure scenarios, rendered in the design language. *)
let serve_body =
  lazy
    (match
       Storage_spec.Spec.design_to_string
         ~scenarios:
           [
             ("array failure", Baseline.scenario_array);
             ("site disaster", Baseline.scenario_site);
           ]
         Baseline.design
     with
    | Ok text -> text
    | Error e -> failwith ("cannot render baseline design: " ^ e))

type serve_load = {
  p50 : float;  (** median request latency, seconds *)
  failures : int;  (** non-200 responses *)
}

let serve_load ~port ~clients ~per_client =
  let body = Lazy.force serve_body in
  (* Warm the code paths outside the measurement. *)
  ignore (http_request ~port ~meth:"POST" ~path:"/evaluate" ~body);
  let domains =
    List.init clients (fun _ ->
        Domain.spawn (fun () ->
            Array.init per_client (fun _ ->
                let t = Unix.gettimeofday () in
                let status =
                  http_request ~port ~meth:"POST" ~path:"/evaluate" ~body
                in
                (Unix.gettimeofday () -. t, status))))
  in
  let samples = List.concat_map (fun d -> Array.to_list (Domain.join d)) domains in
  let latencies = Array.of_list (List.map fst samples) in
  Array.sort compare latencies;
  {
    p50 = latencies.((Array.length latencies - 1) / 2);
    failures =
      List.length (List.filter (fun (_, status) -> status <> 200) samples);
  }

(* Wall time of one cold `ssdep evaluate --file ... --json` — process
   start, parse, evaluate, print — which is what every scripted call
   pays without the daemon. Best of [repeats]. *)
let cold_single_shot ~ssdep_bin () =
  let path = Filename.temp_file "ssdep_bench" ".ssdep" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Lazy.force serve_body));
      let cmd =
        Printf.sprintf "%s evaluate --file %s --json > /dev/null 2>&1"
          (Filename.quote ssdep_bin) (Filename.quote path)
      in
      time_best_of ~repeats:3 (fun () ->
          if Sys.command cmd <> 0 then
            failwith ("cold single-shot failed: " ^ cmd)))

let start_serve_daemon () =
  let module Server = Storage_serve.Server in
  let engine = Storage_optimize.Engine.create () in
  let server =
    Server.start
      ~config:{ Server.default_config with Server.port = 0 }
      engine
  in
  (engine, server)

(* --- perf-regression gate --- *)

(* [bench/main.exe --check [--smoke]]: measure the evaluation hot path
   and compare against the committed floors/ceilings in
   [bench/baselines.ml]. One machine-readable "CHECK <gate> <ok|FAIL|skip>"
   line per gate on stdout, the same data in BENCH_check.json, exit code
   1 on any failure. The smoke tier runs under `dune runtest` on every
   build; the full tier is the nightly CI gate. *)
let check_bench ~smoke () =
  let module J = Storage_report.Json in
  let b = if smoke then Baselines.smoke else Baselines.full in
  let cores = Storage_parallel.Pool.default_jobs () in
  let grid () = grid b.Baselines.grid_scale in
  let n = Seq.length (grid ()) in
  Printf.printf
    "Perf-regression check, %s tier: %d candidates x %d scenarios, %d \
     core(s)\n"
    b.Baselines.name n (List.length scenarios) cores;
  let gates = ref [] in
  let gate name ~measured ~threshold ~ok ~unit_ =
    Printf.printf "CHECK %-17s %-4s measured %12.1f %s (threshold %.1f)\n"
      name
      (if ok then "ok" else "FAIL")
      measured unit_ threshold;
    gates :=
      J.Obj
        [
          ("gate", J.String name);
          ("status", J.String (if ok then "ok" else "fail"));
          ("measured", J.Float measured);
          ("threshold", J.Float threshold);
          ("unit", J.String unit_);
        ]
      :: !gates;
    ok
  in
  let skip name reason =
    Printf.printf "CHECK %-17s skip %s\n" name reason;
    gates :=
      J.Obj
        [
          ("gate", J.String name);
          ("status", J.String "skip");
          ("reason", J.String reason);
        ]
      :: !gates;
    true
  in
  (* Gate 1 — serial streaming throughput: regressions in enumeration,
     the evaluation stages or the search loop itself all land here. *)
  let t_serial =
    time_best_of ~repeats:(if smoke then 3 else 2) (fun () ->
        search ~jobs:1 (grid ()))
  in
  let cps = float_of_int n /. t_serial in
  let ok_throughput =
    gate "serial-throughput" ~measured:cps
      ~threshold:b.Baselines.min_candidates_per_sec
      ~ok:(cps >= b.Baselines.min_candidates_per_sec)
      ~unit_:"candidates/s"
  in
  (* Gate 2 — parallel speedup: wall-clock serial over [b.jobs] domains.
     Skipped, not failed, when the machine cannot supply the domains —
     a speedup measured on time-shared cores is noise either way. *)
  let ok_speedup =
    if cores < b.Baselines.jobs then
      skip "parallel-speedup"
        (Printf.sprintf "%d core(s) < %d jobs" cores b.Baselines.jobs)
    else begin
      let t_par =
        time_best_of ~repeats:(if smoke then 3 else 2) (fun () ->
            search ~jobs:b.Baselines.jobs (grid ()))
      in
      let speedup = t_serial /. t_par in
      gate "parallel-speedup" ~measured:speedup
        ~threshold:b.Baselines.min_parallel_speedup
        ~ok:(speedup >= b.Baselines.min_parallel_speedup)
        ~unit_:"x"
    end
  in
  (* Gate 3 — peak live words of the monitored serial run: the
     O(window + frontier) memory contract. An O(grid) leak — materializing
     summaries, an unbounded memo — blows through the ceiling by an order
     of magnitude. *)
  let ok_peak =
    let _, peak = peak_live_words (search ~jobs:1) (grid ()) in
    gate "peak-live-words" ~measured:(float_of_int peak)
      ~threshold:(float_of_int b.Baselines.max_peak_live_words)
      ~ok:(peak <= b.Baselines.max_peak_live_words)
      ~unit_:"words"
  in
  (* Gate 4 — fleet Monte Carlo throughput: serial trials/s of the
     baseline preset. Regressions in the trace sampler, the degenerate
     single-event reduction or the event-driven simulator's hot loop
     (e.g. a reintroduced sub-ulp advance stall) land here. *)
  let ok_fleet =
    let fleet_config =
      Storage_fleet.Fleet.config ~trials:b.Baselines.fleet_trials
        ~horizon_years:5. ()
    in
    let t_fleet =
      time_best_of ~repeats:(if smoke then 2 else 3) (fun () ->
          Storage_engine.with_engine ~jobs:1 (fun engine ->
              Storage_fleet.Fleet.run ~engine ~config:fleet_config
                Baseline.design))
    in
    let tps = float_of_int b.Baselines.fleet_trials /. t_fleet in
    gate "fleet-trials-per-sec" ~measured:tps
      ~threshold:b.Baselines.min_fleet_trials_per_sec
      ~ok:(tps >= b.Baselines.min_fleet_trials_per_sec)
      ~unit_:"trials/s"
  in
  (* Gate 5 — solver-vs-grid parity: annealing, budgeted at
     [solver_budget_fraction] of the candidates the exhaustive grid
     evaluated, must land on the grid optimum exactly. The measured
     value is the share of the grid the solver actually evaluated; the
     gate fails either by missing the optimum or by burning more than
     the committed fraction. Deterministic (pinned seed), so a failure
     here is a solver regression, not noise. *)
  let ok_solver =
    Storage_engine.with_engine ~jobs:1 (fun engine ->
        let (grid, _), _, (anneal, _) = grid_then_anneal ~engine b in
        let fraction =
          100.
          *. float_of_int anneal.Solver.stats.Solver.evaluations
          /. float_of_int grid.Solver.stats.Solver.evaluations
        in
        let threshold = 100. *. b.Baselines.solver_budget_fraction in
        gate "solver-vs-grid" ~measured:fraction ~threshold
          ~ok:(matches_grid ~grid anneal && fraction <= threshold)
          ~unit_:"% of grid")
  in
  (* Gate 6 — the daemon's reason to exist: a running daemon's /evaluate
     p50 must beat the cold single-shot CLI wall time by the committed
     factor. Runs last: [Server.start] flips the obs registry on, which
     must not perturb the gates above. Skipped when SSDEP_BIN does not
     point at the CLI binary (nothing cold to time). *)
  let ok_serve =
    match Sys.getenv_opt "SSDEP_BIN" with
    | None -> skip "serve-warm-speedup" "SSDEP_BIN not set"
    | Some ssdep_bin ->
      let engine, server = start_serve_daemon () in
      let load =
        Fun.protect
          ~finally:(fun () ->
            Storage_serve.Server.stop server;
            Storage_engine.shutdown engine)
          (fun () ->
            serve_load
              ~port:(Storage_serve.Server.port server)
              ~clients:4
              ~per_client:(if smoke then 25 else 100))
      in
      let cold = cold_single_shot ~ssdep_bin () in
      let speedup = cold /. load.p50 in
      if load.failures > 0 then
        gate "serve-warm-speedup"
          ~measured:(float_of_int load.failures)
          ~threshold:0. ~ok:false ~unit_:"failed requests"
      else
        gate "serve-warm-speedup" ~measured:speedup
          ~threshold:b.Baselines.min_serve_warm_speedup
          ~ok:(speedup >= b.Baselines.min_serve_warm_speedup)
          ~unit_:"x"
  in
  let pass =
    ok_throughput && ok_speedup && ok_peak && ok_fleet && ok_solver && ok_serve
  in
  let json =
    J.Obj
      [
        ("mode", J.String "check");
        ("tier", J.String b.Baselines.name);
        ("grid_scale", J.Int b.Baselines.grid_scale);
        ("candidates", J.Int n);
        ("scenarios", J.Int (List.length scenarios));
        ("recommended_domain_count", J.Int cores);
        ("gates", J.List (List.rev !gates));
        ("pass", J.Bool pass);
      ]
  in
  Out_channel.with_open_text "BENCH_check.json" (fun oc ->
      output_string oc (J.to_string_pretty json);
      output_char oc '\n');
  Printf.printf "  wrote BENCH_check.json\nCHECK result: %s\n"
    (if pass then "pass" else "FAIL");
  if not pass then exit 1

(* --- micro-benchmarks --- *)

let small_trace =
  lazy
    (Storage_workload.Trace.generate ~seed:11L
       {
         Cello.trace_profile with
         Storage_workload.Trace.block_count = 4096;
         mean_update_rate = Rate.mib_per_sec 2.;
       }
       (Duration.hours 6.))

let micro_tests =
  [
    Test.make ~name:"table2: trace characterization (6h trace)"
      (Staged.stage (fun () ->
           let trace = Lazy.force small_trace in
           Storage_workload.Trace_stats.batch_curve trace
             ~windows:[ Duration.minutes 1.; Duration.hours 1. ]));
    Test.make ~name:"table5: utilization (baseline)"
      (Staged.stage (fun () -> Utilization.compute Baseline.design));
    Test.make ~name:"table6: evaluate 3 scenarios (baseline)"
      (Staged.stage (fun () ->
           Evaluate.run_all Baseline.design Baseline.scenarios));
    Test.make ~name:"table7: evaluate 7 designs x 2 scenarios"
      (Staged.stage (fun () ->
           List.iter
             (fun (_, d) ->
               ignore
                 (Evaluate.run_all d
                    [ Baseline.scenario_array; Baseline.scenario_site ]))
             Whatif.all));
    Test.make ~name:"figure3: RP ranges (baseline)"
      (Staged.stage (fun () ->
           let h = Baseline.design.Design.hierarchy in
           List.init
             (Storage_hierarchy.Hierarchy.length h)
             (Storage_hierarchy.Hierarchy.guaranteed_range h)));
    Test.make ~name:"figure4: recovery timeline (site)"
      (Staged.stage (fun () ->
           Recovery_time.compute Baseline.design Baseline.scenario_site
             ~source_level:3));
    Test.make ~name:"figure5: cost outlays (baseline)"
      (Staged.stage (fun () -> Cost.outlays Baseline.design));
    Test.make ~name:"sim: 4-week warmup + array failure"
      (Staged.stage (fun () ->
           Storage_sim.Sim.run
             ~config:{ Storage_sim.Sim.warmup = Duration.weeks 4.; outage = None; record_events = false }
             Baseline.design Baseline.scenario_array));
  ]

let run_micro () =
  print_endline "Micro-benchmarks (Bechamel, monotonic clock):";
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let test = Test.make_grouped ~name:"experiments" ~fmt:"%s %s" micro_tests in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
  let results =
    Analyze.all
      (Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> t
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols with Some r -> r | None -> nan
      in
      rows := (name, estimate, r2) :: !rows)
    results;
  let rows = List.sort (fun (a, _, _) (b, _, _) -> compare a b) !rows in
  List.iter
    (fun (name, ns, r2) ->
      let human =
        if ns >= 1e9 then Printf.sprintf "%8.2f s " (ns /. 1e9)
        else if ns >= 1e6 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
        else if ns >= 1e3 then Printf.sprintf "%8.2f us" (ns /. 1e3)
        else Printf.sprintf "%8.0f ns" ns
      in
      Printf.printf "  %-50s %s/run  (r² %.3f)\n" name human r2)
    rows

(* Every mode, keyed by its arguments joined with spaces. *)
let modes =
  [
    ("micro", run_micro);
    ("validate", validate);
    ("pareto", pareto);
    ("ablate", ablate);
    ("stream", stream_bench);
    ("fleet", fleet_bench);
    ("solver", solver_bench ~smoke:false);
    ("solver smoke", solver_bench ~smoke:true);
    ("--check", check_bench ~smoke:false);
    ("--check --smoke", check_bench ~smoke:true);
    ("check", check_bench ~smoke:false);
    ("check smoke", check_bench ~smoke:true);
  ]

(* Any other arguments name artifacts; every name is checked before
   anything prints, so a retired mode cannot pass for a silent no-op. *)
let print_artifacts names =
  match
    List.filter (fun n -> not (List.mem_assoc n Paper_tables.artifacts)) names
  with
  | [] ->
    List.iter
      (fun n -> print_artifact (List.assoc n Paper_tables.artifacts))
      names
  | unknown ->
    Printf.eprintf
      "bench/main.exe: unknown mode or artifact: %s\nmodes: %s\nartifacts: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst modes))
      (String.concat ", " (List.map fst Paper_tables.artifacts));
    exit 2

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] ->
    List.iter (fun (_, render) -> print_artifact render) Paper_tables.artifacts;
    validate ();
    print_newline ();
    ablate ();
    run_micro ()
  | _ :: args -> (
    match List.assoc_opt (String.concat " " args) modes with
    | Some run -> run ()
    | None -> print_artifacts args)
