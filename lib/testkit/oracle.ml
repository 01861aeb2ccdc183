(* The oracle registry: differential and metamorphic checks over one
   generated case.

   Each oracle is a pure (given the engines) deterministic judgment:
   Pass, Fail with a message, or Skip when the case is outside the
   oracle's precondition (e.g. an invalid mutant handed to a
   simulation-agreement check). Tolerances are documented in TESTING.md;
   byte-identity checks marshal with No_sharing, the same convention the
   property suites use. *)

open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
open Storage_optimize
module Engine = Storage_engine
module Fleet = Storage_fleet.Fleet
module Sim = Storage_sim.Sim
module Json = Storage_report.Json

type verdict = Pass | Fail of string | Skip of string

type ctx = {
  engine : Engine.t;  (** the session engine every evaluation runs under *)
  aux : Engine.t;  (** a multi-domain engine for parallel-invariance *)
}

type t = {
  name : string;
  doc : string;
  check : ctx -> Design.t -> (string * Scenario.t) list -> verdict;
}

let failf fmt = Printf.ksprintf (fun m -> Fail m) fmt
let bytes_of x = Marshal.to_string x [ Marshal.No_sharing ]

let loss_seconds = function
  | Data_loss.Updates d -> Duration.to_seconds d
  | Data_loss.Entire_object -> Float.infinity

let eval_errors d scenarios =
  List.concat_map (fun (_, sc) -> (Evaluate.run d sc).Evaluate.errors) scenarios

let rec first_failure f = function
  | [] -> Pass
  | x :: rest -> (match f x with Pass -> first_failure f rest | v -> v)

(* --- lint-reject <=> evaluate-raise coincidence --- *)

let lint_coincidence =
  {
    name = "lint-coincidence";
    doc =
      "Lint.accepts iff Design.validate; per scenario, lint errors empty \
       iff Evaluate.run reports no errors";
    check =
      (fun _ d scenarios ->
        let accepts = Storage_lint.accepts d in
        let validates = Result.is_ok (Design.validate d) in
        if accepts <> validates then
          failf "Lint.accepts = %b but Design.validate ok = %b" accepts
            validates
        else
          first_failure
            (fun (name, sc) ->
              let lint_clean =
                Storage_lint.errors
                  (Storage_lint.check ~scenarios:[ (name, sc) ] d)
                = []
              in
              let eval_clean = (Evaluate.run d sc).Evaluate.errors = [] in
              if lint_clean = eval_clean then Pass
              else
                failf
                  "scenario %s: lint %s but evaluation %s" name
                  (if lint_clean then "is clean" else "has errors")
                  (if eval_clean then "is clean" else "has errors"))
            scenarios);
  }

(* --- the derived table against its from-scratch reference --- *)

(* A device and a link no design names, for the accessors' answers about
   hardware outside the hierarchy. *)
let foreign_device =
  Device.make ~name:"(no such device)"
    ~location:(Location.make ~building:"" ~site:"" ~region:"")
    ~max_capacity_slots:1 ~slot_capacity:(Size.gib 1.) ()

let foreign_link =
  Interconnect.make ~name:"(no such link)" ~transport:Interconnect.Shipment ()

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

let derived_mismatch (d : Design.t) =
  let h = d.Design.hierarchy in
  let differ what a b () =
    if String.equal (bytes_of a) (bytes_of b) then None
    else Some (what ^ " differs from the reference")
  in
  let per_device (dev : Device.t) =
    let on what = Printf.sprintf "%s on %s" what dev.Device.name in
    [
      differ (on "demands_on") (Design.demands_on d dev)
        (Reference.demands_on d dev);
      differ (on "loaded_demands_on")
        (Design.loaded_demands_on d dev)
        (Reference.loaded_demands_on d dev);
      differ (on "device_utilization")
        (Design.device_utilization d dev)
        (Reference.device_utilization d dev);
      differ (on "demand_shares")
        (Design.demand_shares d dev)
        (Reference.demand_shares d dev);
      differ
        (on "primary_technique_of_device")
        (outcome (fun () -> Design.primary_technique_of_device d dev))
        (outcome (fun () -> Reference.primary_technique_of_device d dev));
    ]
  in
  let per_link (link : Interconnect.t) =
    differ
      (Printf.sprintf "link_demand on %s" link.Interconnect.name)
      (Design.link_demand d link)
      (Reference.link_demand d link)
  in
  let per_level j =
    let at what = Printf.sprintf "%s at level %d" what j in
    [
      differ (at "worst_lag") (Design.worst_lag d j) (Hierarchy.worst_lag h j);
      differ (at "guaranteed_range")
        (Design.guaranteed_range d j)
        (Hierarchy.guaranteed_range h j);
      differ (at "rp_interval_min")
        (Design.rp_interval_min d j)
        (Reference.rp_interval_min d j);
    ]
  in
  let links = List.map fst (Reference.links d) in
  List.find_map
    (fun check -> check ())
    ([
       differ "devices" (Design.devices d) (Reference.devices d);
       differ "links" (Design.links d) (Reference.links d);
       differ "validate" (Design.validate d) (Reference.validate d);
     ]
    @ List.concat_map per_device (Reference.devices d @ [ foreign_device ])
    @ List.map per_link (links @ [ foreign_link ])
    @ List.concat_map per_level (List.init (Hierarchy.length h) Fun.id))

let derived_vs_reference =
  {
    name = "derived-vs-reference";
    doc =
      "every Design derived accessor (devices, links, validate, per-device \
       demands, loaded demands, utilization, shares and owner, per-link \
       demand, per-level lags) is byte-identical to its recomputation from \
       the public per-level functions";
    check =
      (fun _ d _ ->
        match derived_mismatch d with None -> Pass | Some m -> Fail m);
  }

(* --- cached == uncached --- *)

let cache_invariance =
  {
    name = "cache-invariance";
    doc =
      "Eval_cache.run is byte-identical to Evaluate.run, and a cache hit \
       returns the physically stored report";
    check =
      (fun _ d scenarios ->
        let cache = Eval_cache.create () in
        first_failure
          (fun (name, sc) ->
            let direct = Evaluate.run d sc in
            let cached = Eval_cache.run cache d sc in
            if not (String.equal (bytes_of direct) (bytes_of cached)) then
              failf "scenario %s: cached report differs from direct" name
            else if not (Eval_cache.run cache d sc == cached) then
              failf "scenario %s: cache hit is not physically shared" name
            else Pass)
          scenarios);
  }

(* --- the score against the reports it summarizes --- *)

(* The worst-case fold over full reports that [Objective.summarize] ran
   before it scored without building them. *)
let reference_summary design scenarios =
  let reports = Evaluate.run_all design scenarios in
  let outlays = (List.hd reports).Evaluate.outlays.Cost.total in
  let worst_recovery_time =
    List.fold_left
      (fun acc r -> Duration.max acc r.Evaluate.recovery_time)
      Duration.zero reports
  in
  let worst_loss =
    List.fold_left
      (fun acc r ->
        let l = r.Evaluate.data_loss.Data_loss.loss in
        if Data_loss.compare_loss l acc > 0 then l else acc)
      (Data_loss.Updates Duration.zero)
      reports
  in
  let worst_penalties =
    List.fold_left
      (fun acc r -> Money.max acc r.Evaluate.penalties.Cost.total)
      Money.zero reports
  in
  let feasible =
    List.for_all
      (fun r ->
        r.Evaluate.errors = []
        && r.Evaluate.data_loss.Data_loss.loss <> Data_loss.Entire_object
        && Option.value ~default:true r.Evaluate.meets_rto
        && Option.value ~default:true r.Evaluate.meets_rpo)
      reports
  in
  {
    Objective.design;
    reports;
    outlays;
    worst_recovery_time;
    worst_loss;
    worst_penalties;
    worst_total_cost = Money.add outlays worst_penalties;
    feasible;
  }

let score_mismatch design scenarios =
  let s = Objective.summarize design scenarios in
  let r = reference_summary design scenarios in
  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
  let number name a b =
    if same a b then None
    else Some (Printf.sprintf "%s: %.17g, reports give %.17g" name a b)
  in
  let usd name a b = number name (Money.to_usd a) (Money.to_usd b) in
  let loss = function
    | Data_loss.Updates d -> Some (Duration.to_seconds d)
    | Data_loss.Entire_object -> None
  in
  List.find_map Fun.id
    [
      usd "outlays" s.Objective.outlays r.Objective.outlays;
      number "worst recovery time"
        (Duration.to_seconds s.Objective.worst_recovery_time)
        (Duration.to_seconds r.Objective.worst_recovery_time);
      (match (loss s.Objective.worst_loss, loss r.Objective.worst_loss) with
      | Some a, Some b -> number "worst loss" a b
      | None, None -> None
      | _ -> Some "worst loss: total loss on one side only");
      usd "worst penalties" s.Objective.worst_penalties
        r.Objective.worst_penalties;
      usd "worst total cost" s.Objective.worst_total_cost
        r.Objective.worst_total_cost;
      (if s.Objective.feasible = r.Objective.feasible then None
       else
         Some
           (Printf.sprintf "feasible: %b, reports give %b" s.Objective.feasible
              r.Objective.feasible));
      usd "Cost.total" (Cost.total design) (Cost.outlays design).Cost.total;
    ]

let summary_vs_reports =
  {
    name = "summary-vs-reports";
    doc =
      "Objective.summarize's outlays, worst RT, worst loss, worst \
       penalties, total and feasibility equal, bit for bit, the worst case \
       over Evaluate.run_all's reports; Cost.total equals the outlay \
       items' total";
    check =
      (fun _ d scenarios ->
        match score_mismatch d (List.map snd scenarios) with
        | None -> Pass
        | Some m -> Fail m);
  }

(* --- streaming == materialized --- *)

let stream_vs_materialized =
  {
    name = "stream-vs-materialized";
    doc =
      "Search.run (streaming, engine) is byte-identical to the \
       materialized reference loop on the case's singleton grid";
    check =
      (fun ctx d scenarios ->
        let scs = List.map snd scenarios in
        let streaming = Search.run ~engine:ctx.engine (Seq.return d) scs in
        let materialized = Search.run_materialized [ d ] scs in
        if String.equal (bytes_of streaming) (bytes_of materialized) then Pass
        else Fail "streaming search differs from the materialized loop");
  }

(* --- parallel == serial --- *)

let parallel_invariance =
  {
    name = "parallel-invariance";
    doc =
      "Objective.summarize and Search.run are byte-identical between a \
       serial and a multi-domain engine";
    check =
      (fun ctx d scenarios ->
        let scs = List.map snd scenarios in
        let serial_summary = Objective.summarize d scs in
        let par_summary = Objective.summarize ~engine:ctx.aux d scs in
        if not (String.equal (bytes_of serial_summary) (bytes_of par_summary))
        then Fail "summarize differs between serial and parallel engines"
        else begin
          (* The same design three times: duplicates in one parallel
             window. *)
          let grid () = List.to_seq [ d; d; d ] in
          let serial = Search.run (grid ()) scs in
          let par = Search.run ~engine:ctx.aux (grid ()) scs in
          if String.equal (bytes_of serial) (bytes_of par) then Pass
          else Fail "search differs between serial and parallel engines"
        end);
  }

(* --- analytic model vs discrete-event simulation --- *)

let analytic_vs_sim =
  {
    name = "analytic-vs-sim";
    doc =
      "simulated data loss within the analytic worst case (+1 s) and \
       simulated recovery time within the documented tolerance band of \
       the analytic estimate, for now-targets on valid designs";
    check =
      (fun _ d scenarios ->
        if eval_errors d scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else begin
          let now_scenarios =
            List.filter
              (fun (_, (sc : Scenario.t)) ->
                Duration.is_zero sc.Scenario.target_age)
              scenarios
          in
          if now_scenarios = [] then Skip "no now-target scenario"
          else begin
            let h = d.Design.hierarchy in
            let worst_lag_s =
              List.fold_left
                (fun acc j ->
                  Float.max acc (Duration.to_seconds (Hierarchy.worst_lag h j)))
                0.
                (List.init (Hierarchy.length h - 1) (fun i -> i + 1))
            in
            let warmup =
              Duration.seconds
                (Float.max
                   (Duration.to_seconds (Duration.weeks 10.))
                   (1.25 *. worst_lag_s))
            in
            let config =
              { Storage_sim.Sim.warmup; outage = None; record_events = false }
            in
            first_failure
              (fun (name, sc) ->
                let model = Evaluate.run d sc in
                let m = Storage_sim.Sim.run ~config d sc in
                let model_loss =
                  loss_seconds model.Evaluate.data_loss.Data_loss.loss
                in
                let sim_loss = loss_seconds m.Storage_sim.Sim.data_loss in
                if sim_loss > model_loss +. 1. then
                  failf
                    "scenario %s: simulated loss %.1f s exceeds the \
                     analytic worst case %.1f s"
                    name sim_loss model_loss
                else begin
                  match m.Storage_sim.Sim.recovery_time with
                  | None -> Pass
                  | Some rt ->
                    let sim_rt = Duration.to_seconds rt in
                    let model_rt =
                      Duration.to_seconds model.Evaluate.recovery_time
                    in
                    (* One-sided factor-of-two bound (plus 600 s absolute
                       floor for tiny designs), calibrated empirically —
                       see TESTING.md. The analytic estimate is
                       conservative by construction (worst-phase
                       retrieval point, worst-case bandwidth contention,
                       the known 0.7 h Table 6 transfer-term offset), so
                       the simulation beating it is expected — near the
                       feasibility frontier by an unbounded factor. The
                       strict execution lagging it comes only from
                       in-flight batch cycles and spare-delivery
                       serialization (observed up to +20%); more than 2x
                       means a unit error or a dropped term. *)
                    if sim_rt > (2. *. model_rt) +. 600. then
                      failf
                        "scenario %s: simulated recovery %.1f s is more \
                         than twice the analytic estimate %.1f s"
                        name sim_rt model_rt
                    else Pass
                end)
              now_scenarios
          end
        end);
  }

(* --- metamorphic monotonicity laws --- *)

let halve_window (s : Schedule.t) =
  let acc' = Duration.scale 0.5 s.Schedule.full.Schedule.accumulation in
  if Duration.compare s.Schedule.full.Schedule.propagation acc' > 0 then None
  else begin
    match
      Schedule.windows ~acc:acc' ~prop:s.Schedule.full.Schedule.propagation
        ~hold:s.Schedule.full.Schedule.hold ()
    with
    | w -> Shrink.remake_schedule s ~full:w
             ~retention_count:s.Schedule.retention_count
    | exception Invalid_argument _ -> None
  end

let monotone_shorter_window =
  {
    name = "monotone-shorter-window";
    doc =
      "halving a level's accumulation window never worsens now-target \
       data loss (shorter backup windows mean fresher retrieval points)";
    check =
      (fun _ d scenarios ->
        let now_scenarios =
          List.filter
            (fun (_, (sc : Scenario.t)) ->
              Duration.is_zero sc.Scenario.target_age)
            scenarios
        in
        if now_scenarios = [] then Skip "no now-target scenario"
        else if eval_errors d now_scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else begin
          let levels = Hierarchy.levels d.Design.hierarchy in
          let variants =
            List.filter_map
              (fun i ->
                Shrink.map_level d i (fun level ->
                    match Shrink.schedule_of level.Hierarchy.technique with
                    | None -> None
                    | Some s ->
                      (match halve_window s with
                      | None -> None
                      | Some s' ->
                        (match
                           Shrink.with_schedule level.Hierarchy.technique s'
                         with
                        | None -> None
                        | Some technique ->
                          Some { level with Hierarchy.technique })))
                |> Option.map (fun v -> (i, v)))
              (List.init (List.length levels) Fun.id)
          in
          if variants = [] then Skip "no level with a halvable window"
          else
            first_failure
              (fun (i, variant) ->
                if eval_errors variant now_scenarios <> [] then Pass
                  (* the tightened schedule no longer fits; vacuous *)
                else
                  first_failure
                    (fun (name, sc) ->
                      let before =
                        loss_seconds
                          (Evaluate.run d sc).Evaluate.data_loss.Data_loss.loss
                      in
                      let after =
                        loss_seconds
                          (Evaluate.run variant sc).Evaluate.data_loss
                            .Data_loss.loss
                      in
                      if after <= before +. 1. then Pass
                      else
                        failf
                          "scenario %s: halving level %d's window worsened \
                           loss from %.1f s to %.1f s"
                          name i before after)
                    now_scenarios)
              variants
        end);
  }

let boost_bandwidth (dev : Device.t) =
  if Device.is_capacity_only dev then dev
  else
    Device.make ~name:dev.Device.name ~location:dev.Device.location
      ~max_capacity_slots:dev.Device.max_capacity_slots
      ~slot_capacity:dev.Device.slot_capacity
      ~max_bandwidth_slots:dev.Device.max_bandwidth_slots
      ~slot_bandwidth:(Rate.scale 2. dev.Device.slot_bandwidth)
      ~enclosure_bandwidth:(Rate.scale 2. dev.Device.enclosure_bandwidth)
      ~access_delay:dev.Device.access_delay ~cost:dev.Device.cost
      ~spare:dev.Device.spare ~remote_spare:dev.Device.remote_spare ()

let monotone_bandwidth =
  {
    name = "monotone-bandwidth";
    doc =
      "doubling every device's bandwidth never worsens recovery time";
    check =
      (fun _ d scenarios ->
        if eval_errors d scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else begin
          let levels = Hierarchy.levels d.Design.hierarchy in
          let boosted =
            Shrink.rebuild d
              (List.map
                 (fun (level : Hierarchy.level) ->
                   { level with
                     Hierarchy.device = boost_bandwidth level.Hierarchy.device
                   })
                 levels)
          in
          match boosted with
          | None -> Skip "boosted hierarchy rejected"
          | Some boosted ->
            if eval_errors boosted scenarios <> [] then
              Skip "boosted design does not evaluate cleanly"
            else
              first_failure
                (fun (name, sc) ->
                  let before =
                    Duration.to_seconds (Evaluate.run d sc).Evaluate.recovery_time
                  in
                  let after =
                    Duration.to_seconds
                      (Evaluate.run boosted sc).Evaluate.recovery_time
                  in
                  if after <= before +. 1. then Pass
                  else
                    failf
                      "scenario %s: doubling bandwidth worsened recovery \
                       from %.1f s to %.1f s"
                      name before after)
                scenarios
        end);
  }

let monotone_cost =
  {
    name = "monotone-cost";
    doc = "outlays are monotone in workload capacity (2x growth)";
    check =
      (fun _ d scenarios ->
        if eval_errors d scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else begin
          let grown =
            Design.make ~name:d.Design.name
              ~workload:(Workload.grow d.Design.workload ~factor:2.)
              ~hierarchy:d.Design.hierarchy ~business:d.Design.business ()
          in
          if eval_errors grown scenarios <> [] then
            Skip "grown design no longer fits"
          else
            first_failure
              (fun (name, sc) ->
                let before =
                  Money.to_usd (Evaluate.run d sc).Evaluate.outlays.Cost.total
                in
                let after =
                  Money.to_usd
                    (Evaluate.run grown sc).Evaluate.outlays.Cost.total
                in
                if after >= before -. 0.01 then Pass
                else
                  failf
                    "scenario %s: doubling the workload shrank outlays \
                     from $%.2f to $%.2f"
                    name before after)
              scenarios
        end);
  }

(* --- fleet Monte Carlo degenerates to the single-failure simulator --- *)

let fleet_degenerate =
  {
    name = "fleet-degenerate";
    doc =
      "a fleet trial whose sampled trace has exactly one failure event \
       reproduces the phase-aligned single-scenario simulator verbatim \
       (outage, loss accounting, rebuild list)";
    check =
      (fun _ d scenarios ->
        if eval_errors d scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else begin
          let horizon = Duration.years 5. in
          let horizon_s = Duration.to_seconds horizon in
          let one_event seed =
            match Fleet.sample_events ~horizon ~seed d with
            | [ e ] -> Some (seed, e)
            | _ -> None
          in
          let candidates =
            List.init 64 (fun i -> Int64.add 0xCA5CADEL (Int64.of_int i))
          in
          match List.find_map one_event candidates with
          | None -> Skip "no candidate seed samples a one-event trace"
          | Some (seed, e) ->
            let trial = Fleet.run_trial ~horizon ~seed ~index:0 d in
            let m = Fleet.single_event_measured d e in
            (* The reduction, recomputed here independently of run_trial:
               an unrecoverable failure is down (and lost) until the end
               of the horizon; a source at level 0 needs no transfer; a
               priced recovery is the outage and the one rebuild. *)
            let expected_outage_s, expected_losses, expected_rebuilds =
              match
                (m.Storage_sim.Sim.source_level,
                 m.Storage_sim.Sim.recovery_time)
              with
              | None, _ ->
                (horizon_s -. Duration.to_seconds e.Scenario.at, 1, [])
              | Some 0, _ | Some _, None -> (0., 0, [])
              | Some _, Some rt -> (Duration.to_seconds rt, 0, [ rt ])
            in
            let expected_outage_s = Float.min expected_outage_s horizon_s in
            let expected_bytes =
              match m.Storage_sim.Sim.data_loss with
              | Data_loss.Updates dur ->
                if Duration.is_zero dur then Size.zero
                else Workload.unique_bytes d.Design.workload dur
              | Data_loss.Entire_object ->
                d.Design.workload.Workload.data_capacity
            in
            let secs = Duration.to_seconds in
            if trial.Fleet.failures <> 1 then
              failf "trial reports %d failures for a one-event trace"
                trial.Fleet.failures
            else if secs trial.Fleet.outage <> expected_outage_s then
              failf "trial outage %.3f s, single-scenario reduction %.3f s"
                (secs trial.Fleet.outage) expected_outage_s
            else if trial.Fleet.losses <> expected_losses then
              failf "trial losses %d, single-scenario reduction %d"
                trial.Fleet.losses expected_losses
            else if
              not (Size.equal trial.Fleet.bytes_lost expected_bytes)
            then
              failf "trial lost %s, single-scenario reduction %s"
                (Fmt.str "%a" Size.pp trial.Fleet.bytes_lost)
                (Fmt.str "%a" Size.pp expected_bytes)
            else if
              List.map secs trial.Fleet.rebuilds
              <> List.map secs expected_rebuilds
            then failf "trial rebuild list differs from the reduction"
            else Pass
        end);
  }

(* --- a resumed warm-up is the from-scratch one --- *)

(* The first field of two simulator measurements whose bytes differ:
   marshalled, so floats compare bit for bit. *)
let measured_difference (a : Sim.measured) (b : Sim.measured) =
  List.find_map
    (fun (field, x, y) -> if String.equal x y then None else Some field)
    [
      ("source_level", bytes_of a.Sim.source_level, bytes_of b.Sim.source_level);
      ("data_loss", bytes_of a.Sim.data_loss, bytes_of b.Sim.data_loss);
      ("recovery_time", bytes_of a.Sim.recovery_time, bytes_of b.Sim.recovery_time);
      ("rp_count", bytes_of a.Sim.rp_count, bytes_of b.Sim.rp_count);
      ("rp_newest_age", bytes_of a.Sim.rp_newest_age, bytes_of b.Sim.rp_newest_age);
      ( "bandwidth_utilization",
        bytes_of a.Sim.bandwidth_utilization,
        bytes_of b.Sim.bandwidth_utilization );
    ]

let sim_warm_resume =
  {
    name = "sim-warm-resume";
    doc =
      "Sim.run resumed from a recorded warm-up is bit-identical, field by \
       field, to the from-scratch run at four seeded warm-ups across the \
       recording (a kept state's clock, its successor float, two uniform \
       draws), each under a seeded scenario";
    check =
      (fun _ d scenarios ->
        if eval_errors d scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else if scenarios = [] then Skip "no scenario"
        else begin
          (* Twice the longest RP cycle plus a week: every level has
             cycled twice. *)
          let longest =
            List.fold_left
              (fun acc (l : Hierarchy.level) ->
                match Technique.schedule l.Hierarchy.technique with
                | None -> acc
                | Some s -> Duration.max acc (Schedule.cycle_period s))
              Duration.zero
              (Hierarchy.levels d.Design.hierarchy)
          in
          let until_s =
            (2. *. Duration.to_seconds longest)
            +. Duration.to_seconds (Duration.weeks 1.)
          in
          let warm = Sim.warm d ~until:(Duration.seconds until_s) in
          let rng =
            Prng.create
              ~seed:(Int64.of_int (Hashtbl.hash (Design.fingerprint d)))
          in
          let clocks = Array.of_list (Sim.warm_clocks warm) in
          let kept =
            Duration.to_seconds clocks.(Prng.int rng (Array.length clocks))
          in
          let warmups =
            [
              kept;
              Float.succ kept;
              Prng.float_range rng 0. until_s;
              Prng.float_range rng 0. until_s;
            ]
          in
          let scenarios = Array.of_list scenarios in
          first_failure
            (fun warmup_s ->
              let name, sc =
                scenarios.(Prng.int rng (Array.length scenarios))
              in
              let config =
                { Sim.default_config with
                  Sim.warmup = Duration.seconds warmup_s }
              in
              match
                measured_difference (Sim.run ~warm ~config d sc)
                  (Sim.run ~config d sc)
              with
              | None -> Pass
              | Some field ->
                failf
                  "scenario %s, warmup %.17g s: the resumed run's %s \
                   differs from the from-scratch run's"
                  name warmup_s field)
            warmups
        end);
  }

(* --- fleet report is schedule-independent --- *)

let fleet_jobs_invariance =
  {
    name = "fleet-jobs-invariance";
    doc =
      "Fleet.run's JSON report is byte-identical between the session \
       engine and the multi-domain engine (trial order, not dispatch \
       schedule, determines the aggregate)";
    check =
      (fun ctx d scenarios ->
        if eval_errors d scenarios <> [] then
          Skip "design does not evaluate cleanly"
        else begin
          let config = Fleet.config ~trials:8 ~horizon_years:1. () in
          let render engine =
            Json.to_string (Fleet.to_json (Fleet.run ~engine ~config d))
          in
          if String.equal (render ctx.engine) (render ctx.aux) then Pass
          else
            Fail "fleet report differs between serial and parallel engines"
        end);
  }

(* --- solver methods match exhaustive search --- *)

let solver_exhaustive_equivalence =
  (* A grid small enough to exhaust on every case (11 points: both PiT
     kinds x 2 accumulations x 2 backup windows, plus 3 mirror bundles)
     yet spanning both families, so family-boundary moves and both prune
     types are exercised. The annealing budget of 4x the grid makes the
     sweep chain provably exhaustive — equality with grid search is an
     exact judgment, not a heuristic one. *)
  let space =
    {
      Candidate.pit_techniques = [ `Split_mirror; `Snapshot ];
      pit_accumulations = [ Duration.hours 6.; Duration.hours 12. ];
      pit_retentions = [ 2 ];
      backup_accumulations = [ Duration.hours 24.; Duration.weeks 1. ];
      backup_retention_horizon = Duration.weeks 4.;
      vault_accumulations = [ Duration.weeks 4. ];
      vault_retention_horizon = Duration.years 1.;
      mirror_links = [ 1; 2; 4 ];
    }
  in
  {
    name = "solver-exhaustive-equivalence";
    doc =
      "on a small grid under the case's workload and business \
       requirements, annealing at exhaustive budget and branch-and-bound \
       both reach the exhaustive grid optimum exactly — or all three \
       methods agree the grid holds no feasible design";
    check =
      (fun ctx d scenarios ->
        let kit =
          {
            (Storage_presets.Whatif.search_kit ~business:d.Design.business ())
            with
            Candidate.workload = d.Design.workload;
          }
        in
        let scenarios = List.map snd scenarios in
        let budget = 4 * Candidate.point_count space in
        let run method_ =
          Solver.run ~engine:ctx.engine ~budget ~seed:0x5EED5EEDL ~method_ kit
            space scenarios
        in
        let grid = run Solver.Grid in
        let anneal = run Solver.Anneal in
        let bnb = run Solver.Bnb in
        let cost (r : Solver.result) =
          Option.map
            (fun (s : Objective.summary) -> s.Objective.worst_total_cost)
            r.Solver.best
        in
        let agree name r =
          match (cost grid, cost r) with
          | None, None -> Pass
          | Some g, Some s when Money.compare g s = 0 -> Pass
          | Some g, Some s ->
            failf "%s best %s differs from exhaustive optimum %s" name
              (Money.to_string s) (Money.to_string g)
          | Some g, None ->
            failf "%s found nothing feasible; exhaustive optimum is %s" name
              (Money.to_string g)
          | None, Some s ->
            failf
              "%s claims a feasible design at %s on a grid exhaustive \
               search proves infeasible"
              name (Money.to_string s)
        in
        match agree "anneal" anneal with
        | Pass -> agree "bnb" bnb
        | v -> v);
  }

(* --- harness self-test --- *)

let self_test_fail =
  {
    name = "self-test-fail";
    doc =
      "fails on every case by construction — exercises the counterexample \
       pipeline (shrinking, corpus, replay); excluded from the defaults";
    check = (fun _ _ _ -> Fail "self-test oracle fails by construction");
  }

let defaults =
  [
    lint_coincidence;
    derived_vs_reference;
    cache_invariance;
    summary_vs_reports;
    stream_vs_materialized;
    parallel_invariance;
    monotone_shorter_window;
    monotone_bandwidth;
    monotone_cost;
    analytic_vs_sim;
    fleet_degenerate;
    sim_warm_resume;
    fleet_jobs_invariance;
    solver_exhaustive_equivalence;
  ]

let all = defaults @ [ self_test_fail ]
let find_in oracles name = List.find_opt (fun o -> String.equal o.name name) oracles
let find name = find_in all name
