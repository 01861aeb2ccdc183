(* Tests for the design-space optimizer: objective summaries, Pareto
   frontiers and the search loop. *)

open Storage_units
open Storage_model
open Storage_optimize
open Storage_presets
open Helpers

let scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]

let kit business =
  {
    Candidate.workload = Cello.workload;
    business;
    primary = Baseline.disk_array;
    tape_library = Baseline.tape_library;
    vault = Baseline.vault;
    remote_array = Baseline.remote_array;
    san = Baseline.san;
    shipment = Baseline.air_shipment;
    wan = (fun links -> Baseline.oc3 ~links);
  }

let business ?rto ?rpo () =
  Business.make
    ~outage_penalty_rate:(Money_rate.usd_per_hour 50_000.)
    ~loss_penalty_rate:(Money_rate.usd_per_hour 50_000.)
    ?recovery_time_objective:rto ?recovery_point_objective:rpo ()

(* --- Objective --- *)

(* [Objective.summarize] scores without reports; every number must still
   be the worst case over the full reports, bit for bit. *)
let check_score_matches_reports label d scs =
  match Storage_testkit.Oracle.score_mismatch d scs with
  | None -> ()
  | Some m -> Alcotest.failf "%s: %s" label m

let test_summary_baseline () =
  let s = Objective.summarize Baseline.design scenarios in
  Alcotest.(check bool) "no reports" true (s.Objective.reports = []);
  List.iter
    (fun (name, d) -> check_score_matches_reports name d Baseline.scenarios)
    Whatif.all;
  (* The scale-2 grid under objectives that make feasibility vary. *)
  List.iter
    (fun (rto, rpo) ->
      Seq.iter
        (fun d ->
          check_score_matches_reports d.Design.name d Baseline.scenarios)
        (Candidate.enumerate
           (kit (business ?rto ?rpo ()))
           (Whatif.search_space ~scale:2 ())))
    [
      (None, None);
      (Some (Duration.hours 24.), Some (Duration.hours 24.));
      (None, Some (Duration.hours 1.));
      (Some (Duration.hours 2.), Some (Duration.hours 2.));
    ];
  close ~tol:0.01 "worst RT is site" 25.73
    (Duration.to_hours s.Objective.worst_recovery_time);
  (match s.Objective.worst_loss with
  | Data_loss.Updates d -> close "worst loss 1429" 1429. (Duration.to_hours d)
  | Data_loss.Entire_object -> Alcotest.fail "finite loss expected");
  Alcotest.(check bool) "feasible without objectives" true s.Objective.feasible;
  close ~tol:1e-6 "worst total = outlays + worst penalties"
    (Money.to_usd s.Objective.outlays +. Money.to_usd s.Objective.worst_penalties)
    (Money.to_usd s.Objective.worst_total_cost)

let test_summary_infeasible_rto () =
  let d =
    Design.make ~name:"strict" ~workload:Cello.workload
      ~hierarchy:Baseline.design.Design.hierarchy
      ~business:(business ~rto:(Duration.hours 1.) ()) ()
  in
  let s = Objective.summarize d scenarios in
  Alcotest.(check bool) "RTO 1 hr infeasible" false s.Objective.feasible

let test_summary_empty_scenarios () =
  check_raises_invalid "no scenarios" (fun () ->
      Objective.summarize Baseline.design [])

(* --- Pareto --- *)

let test_pareto_baseline_vs_whatifs () =
  let summaries =
    List.map (fun (_, d) -> Objective.summarize d scenarios) Whatif.all
  in
  let frontier = Pareto.frontier summaries in
  let names =
    List.map (fun s -> s.Objective.design.Design.name) frontier
  in
  (* The baseline is dominated: "weekly vault, daily F, snapshot" is
     cheaper with strictly better DL and comparable RT. *)
  Alcotest.(check bool) "baseline dominated" false (List.mem "baseline" names);
  Alcotest.(check bool) "frontier non-empty" true (frontier <> [])

let test_pareto_non_domination_property () =
  let summaries =
    List.map (fun (_, d) -> Objective.summarize d scenarios) Whatif.all
  in
  let frontier = Pareto.frontier summaries in
  List.iter
    (fun s ->
      List.iter
        (fun other ->
          if Pareto.dominates other s then
            Alcotest.failf "%s dominated on the frontier"
              s.Objective.design.Design.name)
        summaries)
    frontier

let test_dominates_asymmetric () =
  let summaries =
    List.map (fun (_, d) -> Objective.summarize d scenarios) Whatif.all
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Pareto.dominates a b && Pareto.dominates b a then
            Alcotest.fail "mutual domination")
        summaries)
    summaries

(* --- Candidate --- *)

let small_space =
  {
    Candidate.pit_techniques = [ `Split_mirror; `Snapshot ];
    pit_accumulations = [ Duration.hours 12. ];
    pit_retentions = [ 4 ];
    backup_accumulations = [ Duration.hours 24.; Duration.weeks 1. ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ Duration.weeks 1. ];
    vault_retention_horizon = Duration.years 3.;
    mirror_links = [ 1; 10 ];
  }

let test_enumerate_counts () =
  let designs = Candidate.enumerate (kit (business ())) small_space in
  (* 2 PiT kinds x 1 acc x 1 ret x 2 backup x 1 vault + 2 mirrors = 6. *)
  Alcotest.(check int) "grid size" 6 (Seq.length designs)

let test_enumerate_lazy_and_persistent () =
  (* Forcing one element must not force the rest, and a re-traversal must
     rebuild the same designs (structurally, hence same fingerprints). *)
  let designs = Candidate.enumerate (kit (business ())) small_space in
  (match Seq.uncons designs with
  | None -> Alcotest.fail "expected a non-empty grid"
  | Some (first, _) ->
    Alcotest.(check bool) "head is valid" true
      (Design.validate first = Ok ()));
  let once = List.of_seq designs in
  let again = List.of_seq designs in
  Alcotest.(check (list string))
    "re-traversal rebuilds the same grid"
    (List.map Design.fingerprint once)
    (List.map Design.fingerprint again)

let test_enumerate_all_valid () =
  let designs =
    List.of_seq (Candidate.enumerate (kit (business ())) Candidate.default_space)
  in
  Alcotest.(check bool) "non-empty" true (designs <> []);
  List.iter
    (fun d ->
      match Design.validate d with
      | Ok () -> ()
      | Error es ->
        Alcotest.failf "invalid candidate %s: %s" d.Design.name
          (String.concat "; " es))
    designs

let test_enumerate_names_unique () =
  let designs =
    List.of_seq (Candidate.enumerate (kit (business ())) Candidate.default_space)
  in
  let names = List.map (fun d -> d.Design.name) designs in
  Alcotest.(check int) "unique names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

(* --- Search --- *)

let test_search_best_is_cheapest_feasible () =
  let candidates = Candidate.enumerate (kit (business ())) small_space in
  let result = Search.run candidates scenarios in
  match result.Search.best with
  | None -> Alcotest.fail "expected a feasible design"
  | Some best ->
    List.iter
      (fun s ->
        if
          s.Objective.feasible
          && Money.compare s.Objective.worst_total_cost
               best.Objective.worst_total_cost
             < 0
        then Alcotest.fail "best is not cheapest")
      result.Search.evaluated

let test_search_respects_rpo () =
  let b = business ~rpo:(Duration.minutes 5.) () in
  let candidates = Candidate.enumerate (kit b) small_space in
  let result = Search.run candidates scenarios in
  (* Only the mirror designs achieve minute-scale RPO. *)
  List.iter
    (fun s ->
      let name = s.Objective.design.Design.name in
      Alcotest.(check bool)
        (name ^ " is a mirror")
        true
        (String.length name >= 6 && String.sub name 0 6 = "asyncB"))
    result.Search.feasible;
  Alcotest.(check bool) "some feasible" true (result.Search.feasible <> [])

let test_search_empty_inputs () =
  check_raises_invalid "no candidates" (fun () -> Search.run Seq.empty scenarios);
  check_raises_invalid "no scenarios" (fun () ->
      Search.run (List.to_seq [ Baseline.design ]) []);
  check_raises_invalid "top_k < 1" (fun () ->
      Search.run ~top_k:0 (List.to_seq [ Baseline.design ]) scenarios)

let test_search_top_k_truncates () =
  let candidates () = Candidate.enumerate (kit (business ())) small_space in
  let full = Search.run (candidates ()) scenarios in
  let truncated = Search.run ~top_k:2 (candidates ()) scenarios in
  Alcotest.(check int) "evaluated not retained" 0
    (List.length truncated.Search.evaluated);
  Alcotest.(check int) "considered matches full run" full.Search.considered
    truncated.Search.considered;
  Alcotest.(check int) "feasible_count matches full run"
    full.Search.feasible_count truncated.Search.feasible_count;
  (* The truncated feasible list is exactly the head of the full sorted
     one, and the frontier/best are unaffected by truncation. *)
  let names r =
    List.map (fun s -> s.Objective.design.Design.name) r.Search.feasible
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  Alcotest.(check (list string))
    "top-k = head of full feasible" (take 2 (names full)) (names truncated);
  Alcotest.(check (list string))
    "same frontier"
    (List.map (fun s -> s.Objective.design.Design.name) full.Search.frontier)
    (List.map
       (fun s -> s.Objective.design.Design.name)
       truncated.Search.frontier);
  Alcotest.(check (option string))
    "same best"
    (Option.map (fun s -> s.Objective.design.Design.name) full.Search.best)
    (Option.map (fun s -> s.Objective.design.Design.name) truncated.Search.best)

let test_search_feasible_sorted () =
  let candidates = Candidate.enumerate (kit (business ())) small_space in
  let result = Search.run candidates scenarios in
  let costs =
    List.map
      (fun s -> Money.to_usd s.Objective.worst_total_cost)
      result.Search.feasible
  in
  Alcotest.(check bool) "ascending" true
    (costs = List.sort Float.compare costs)

(* --- Allocation budget --- *)

(* Minor-heap words per candidate of a [~top_k:10] search over the scale-2
   grid (1,927 candidates), stats off. Allocation is deterministic, so this
   pins the per-candidate cost without depending on the host: it fails if
   scoring goes back to building a full report (utilization, outlay items
   and their names) per scenario, which cost ~3,770 words per candidate. *)
let search_words_budget = 3_350.

let test_search_alloc_budget () =
  let was_enabled = Storage_obs.enabled () in
  Storage_obs.disable ();
  let grid () =
    Candidate.enumerate (kit (business ())) (Whatif.search_space ~scale:2 ())
  in
  ignore (Search.run ~top_k:10 (grid ()) scenarios);
  let w0 = Gc.minor_words () in
  let r = Search.run ~top_k:10 (grid ()) scenarios in
  let words = Gc.minor_words () -. w0 in
  if was_enabled then Storage_obs.enable ();
  let per_candidate = words /. float_of_int r.Search.considered in
  Printf.printf "%d candidates, %.0f minor words/candidate (budget %.0f)\n"
    r.Search.considered per_candidate search_words_budget;
  if per_candidate > search_words_budget then
    Alcotest.failf "%.0f minor words per candidate exceeds the budget %.0f"
      per_candidate search_words_budget

(* Synthetic summaries over a tiny value lattice: small ranges force
   duplicates and per-axis ties, including [Entire_object] ties, which is
   exactly where an incremental frontier could diverge from the quadratic
   specification if eviction were too eager. *)
let synthetic_summary (cost, rt, loss_code) =
  let worst_loss =
    if loss_code >= 4 then Data_loss.Entire_object
    else Data_loss.Updates (Duration.hours (float_of_int loss_code))
  in
  {
    Objective.design = Baseline.design;
    reports = [];
    outlays = Money.usd (float_of_int cost);
    worst_recovery_time = Duration.hours (float_of_int rt);
    worst_loss;
    worst_penalties = Money.usd 0.;
    worst_total_cost = Money.usd (float_of_int cost);
    feasible = true;
  }

let prop_incremental_frontier_matches_reference =
  QCheck.Test.make ~name:"incremental frontier = quadratic reference"
    ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 30)
        (triple (int_range 0 4) (int_range 0 4) (int_range 0 5)))
    (fun triples ->
      let summaries = List.map synthetic_summary triples in
      let incremental = Pareto.frontier summaries in
      let reference = Pareto.frontier_reference summaries in
      let online =
        Pareto.contents (List.fold_left Pareto.insert Pareto.empty summaries)
      in
      List.length incremental = List.length reference
      && List.for_all2 ( == ) incremental reference
      && List.length online = List.length reference
      && List.for_all2 ( == ) online reference)

(* Two structurally distinct designs with byte-equal scores: the frontier
   must order them the same way whichever arrived first (the tie-break
   regression the incremental frontier used to leak input order on). *)
let test_pareto_tie_break_order_independent () =
  let score s (d : Design.t) = { s with Objective.design = d } in
  let a = score (synthetic_summary (3, 2, 1)) Baseline.design in
  let b =
    score (synthetic_summary (3, 2, 1)) (List.assoc "weekly vault" Whatif.all)
  in
  let names l =
    List.map (fun s -> s.Objective.design.Design.name) (Pareto.frontier l)
  in
  Alcotest.(check (list string))
    "both orders agree" (names [ a; b ]) (names [ b; a ]);
  Alcotest.(check int) "both survive" 2 (List.length (names [ a; b ]));
  (* And with an interleaved non-tied survivor the classes stay pinned. *)
  let c = score (synthetic_summary (2, 3, 2)) Baseline.design in
  Alcotest.(check (list string))
    "tied class pinned around other survivors" (names [ a; c; b ])
    (names [ b; c; a ])

let prop_frontier_subset =
  QCheck.Test.make ~name:"frontier is a subset of the input" ~count:10
    QCheck.(int_range 1 4)
    (fun n ->
      let designs =
        List.filteri (fun i _ -> i < n) (List.map snd Whatif.all)
      in
      let summaries = List.map (fun d -> Objective.summarize d scenarios) designs in
      let frontier = Pareto.frontier summaries in
      List.for_all (fun s -> List.memq s summaries) frontier
      && List.length frontier <= List.length summaries
      && frontier <> [])

(* --- Solver --- *)

let bytes_of x = Marshal.to_string x [ Marshal.No_sharing ]

(* A space whose pit-accumulation axis is long enough (>= 8, the
   bisection threshold) that branch-and-bound locates the lint
   feasibility frontier by geometric bisection rather than element-wise
   probing. *)
let bisection_space =
  {
    Candidate.pit_techniques = [ `Split_mirror; `Snapshot ];
    pit_accumulations =
      List.map Duration.hours [ 1.; 2.; 3.; 4.; 6.; 8.; 12.; 24. ];
    pit_retentions = [ 2; 4 ];
    backup_accumulations = [ Duration.hours 24.; Duration.weeks 1. ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ Duration.weeks 1. ];
    vault_retention_horizon = Duration.years 3.;
    mirror_links = [ 1; 10 ];
  }

let best_cost (r : Solver.result) =
  Option.map
    (fun (s : Objective.summary) ->
      Money.to_usd s.Objective.worst_total_cost)
    r.Solver.best

let test_points_decode_as_enumerate () =
  let k = kit (business ()) in
  List.iter
    (fun space ->
      let enumerated = List.of_seq (Candidate.enumerate k space) in
      let decoded =
        List.of_seq
          (Seq.filter_map
             (Candidate.design_of_point (Candidate.axes k space))
             (Candidate.points space))
      in
      Alcotest.(check int)
        "same candidate count" (List.length enumerated) (List.length decoded);
      List.iter2
        (fun a b ->
          Alcotest.(check string)
            "same order" a.Design.name b.Design.name;
          Alcotest.(check bool)
            ("decoded " ^ b.Design.name ^ " byte-identical")
            true
            (String.equal
               (bytes_of (Design.strip a))
               (bytes_of (Design.strip b))))
        enumerated decoded)
    [ small_space; bisection_space ]

(* Annealing determinism: the report is a pure function of (seed, budget)
   — byte-identical across --jobs. *)
let test_anneal_jobs_invariance () =
  let k = kit (business ()) in
  let run jobs =
    let engine = Storage_engine.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Storage_engine.shutdown engine)
      (fun () ->
        let r =
          Solver.run ~engine ~budget:300 ~seed:0xD5EEDL ~method_:Solver.Anneal
            k small_space scenarios
        in
        bytes_of
          ( Option.map (fun s -> Design.strip s.Objective.design) r.Solver.best,
            best_cost r,
            r.Solver.stats ))
  in
  let serial = run 1 in
  Alcotest.(check bool) "jobs 4 = serial" true (String.equal serial (run 4));
  Alcotest.(check bool) "jobs 2 = serial" true (String.equal serial (run 2))

let test_anneal_monotone_budget () =
  let k = kit (business ()) in
  let cost budget =
    let r =
      Solver.run ~budget ~seed:0xD5EEDL ~method_:Solver.Anneal k small_space
        scenarios
    in
    Option.value ~default:Float.infinity (best_cost r)
  in
  let costs = List.map cost [ 4; 24; 60; 150 ] in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "larger budget never worse" true (non_increasing costs)

let test_anneal_full_budget_exhaustive () =
  let k = kit (business ()) in
  List.iter
    (fun space ->
      let budget = 4 * Candidate.point_count space in
      let grid = Solver.run ~method_:Solver.Grid k space scenarios in
      let anneal =
        Solver.run ~budget ~seed:0xACE5L ~method_:Solver.Anneal k space
          scenarios
      in
      Alcotest.(check (option (float 0.)))
        "anneal at exhaustive budget = grid optimum" (best_cost grid)
        (best_cost anneal))
    [ small_space; bisection_space ]

(* B&B soundness: replay every pruned region exhaustively — a pruned
   point must be undecodable, infeasible, or no cheaper than the returned
   optimum — and the optimum itself must equal exhaustive search's. The
   bisection space drives the frontier-bisection path; the accounting
   must also close (every grid cell either visited or pruned). *)
let test_bnb_soundness () =
  let k = kit (business ()) in
  List.iter
    (fun space ->
      let axes = Candidate.axes k space in
      let grid = Solver.run ~method_:Solver.Grid k space scenarios in
      let bnb =
        Solver.run ~record_pruned:true ~method_:Solver.Bnb k space scenarios
      in
      Alcotest.(check (option (float 0.)))
        "bnb = grid optimum" (best_cost grid) (best_cost bnb);
      let pruned = List.concat bnb.Solver.pruned in
      Alcotest.(check int)
        "pruned counters match recorded regions"
        (bnb.Solver.stats.Solver.pruned_cost
        + bnb.Solver.stats.Solver.pruned_infeasible)
        (List.length pruned);
      Alcotest.(check int)
        "every cell visited or pruned"
        (Candidate.point_count space)
        (bnb.Solver.stats.Solver.considered + List.length pruned);
      let best = Option.value ~default:Float.infinity (best_cost bnb) in
      List.iter
        (fun p ->
          match Candidate.design_of_point axes p with
          | None -> ()
          | Some d ->
            let s = Objective.summarize d scenarios in
            if
              s.Objective.feasible
              && Money.to_usd s.Objective.worst_total_cost < best
            then
              Alcotest.failf "pruned %s beats the returned optimum"
                d.Design.name)
        pruned)
    [ small_space; bisection_space ]

let test_solver_invalid_args () =
  let k = kit (business ()) in
  check_raises_invalid "budget < 1" (fun () ->
      Solver.run ~budget:0 ~method_:Solver.Anneal k small_space scenarios);
  check_raises_invalid "no scenarios" (fun () ->
      Solver.run ~method_:Solver.Grid k small_space [])

let test_solve_portfolio_rolls_up () =
  let b = business () in
  let members =
    [
      { Solver.label = "cello"; workload = Cello.workload; business = b };
      {
        Solver.label = "cello-2x";
        workload = Storage_workload.Workload.grow Cello.workload ~factor:2.;
        business = b;
      };
    ]
  in
  let run jobs =
    let engine = Storage_engine.create ~jobs () in
    Fun.protect
      ~finally:(fun () -> Storage_engine.shutdown engine)
      (fun () ->
        Solver.solve_portfolio ~engine ~method_:Solver.Grid
          ~kit:(kit b) ~space:small_space ~members scenarios)
  in
  let pr = run 1 in
  Alcotest.(check int) "one result per member" 2
    (List.length pr.Solver.assignments);
  Alcotest.(check int) "every member assigned" 2 (List.length pr.Solver.chosen);
  Alcotest.(check bool) "site total = outlays + penalties" true
    (Money.compare pr.Solver.site.Solver.total
       (Money.add pr.Solver.site.Solver.outlays
          pr.Solver.site.Solver.penalties)
    = 0);
  (* Consolidation prices members under each other's load: each chosen
     design carries background demands from its neighbor. *)
  List.iter
    (fun (d : Design.t) ->
      Alcotest.(check bool)
        (d.Design.name ^ " sees neighbor load")
        true
        (d.Design.background <> []))
    pr.Solver.chosen;
  (* And the whole consolidation is jobs-invariant. *)
  let again = run 3 in
  Alcotest.(check bool) "portfolio jobs-invariant" true
    (String.equal
       (bytes_of
          (List.map (fun d -> Design.strip d) pr.Solver.chosen, pr.Solver.site))
       (bytes_of
          (List.map (fun d -> Design.strip d) again.Solver.chosen,
           again.Solver.site)))

let suite =
  [
    ( "optimize.objective",
      [
        Alcotest.test_case "baseline summary" `Quick test_summary_baseline;
        Alcotest.test_case "infeasible RTO" `Quick test_summary_infeasible_rto;
        Alcotest.test_case "empty scenarios" `Quick test_summary_empty_scenarios;
      ] );
    ( "optimize.pareto",
      [
        Alcotest.test_case "baseline dominated" `Quick test_pareto_baseline_vs_whatifs;
        Alcotest.test_case "frontier non-domination" `Quick
          test_pareto_non_domination_property;
        Alcotest.test_case "domination asymmetric" `Quick test_dominates_asymmetric;
        Alcotest.test_case "tie-break order independent" `Quick
          test_pareto_tie_break_order_independent;
        qcheck prop_frontier_subset;
        qcheck prop_incremental_frontier_matches_reference;
      ] );
    ( "optimize.candidate",
      [
        Alcotest.test_case "grid size" `Quick test_enumerate_counts;
        Alcotest.test_case "lazy and persistent" `Quick
          test_enumerate_lazy_and_persistent;
        Alcotest.test_case "all candidates valid" `Quick test_enumerate_all_valid;
        Alcotest.test_case "unique names" `Quick test_enumerate_names_unique;
      ] );
    ( "optimize.search",
      [
        Alcotest.test_case "best is cheapest feasible" `Quick
          test_search_best_is_cheapest_feasible;
        Alcotest.test_case "RPO constraint" `Quick test_search_respects_rpo;
        Alcotest.test_case "empty inputs" `Quick test_search_empty_inputs;
        Alcotest.test_case "top-k truncation" `Quick test_search_top_k_truncates;
        Alcotest.test_case "feasible sorted by cost" `Quick
          test_search_feasible_sorted;
        Alcotest.test_case "allocation budget" `Quick test_search_alloc_budget;
      ] );
    ( "optimize.solver",
      [
        Alcotest.test_case "points decode as enumerate" `Quick
          test_points_decode_as_enumerate;
        Alcotest.test_case "anneal jobs-invariant" `Quick
          test_anneal_jobs_invariance;
        Alcotest.test_case "anneal monotone budget" `Quick
          test_anneal_monotone_budget;
        Alcotest.test_case "anneal full budget = exhaustive" `Quick
          test_anneal_full_budget_exhaustive;
        Alcotest.test_case "bnb soundness (pruned replay)" `Quick
          test_bnb_soundness;
        Alcotest.test_case "invalid arguments" `Quick test_solver_invalid_args;
        Alcotest.test_case "portfolio roll-up" `Quick
          test_solve_portfolio_rolls_up;
      ] );
  ]
