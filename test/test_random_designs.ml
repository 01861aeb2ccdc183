(* Randomized cross-validation: for designs drawn from the candidate grid,
   the analytical model's invariants and the simulator's measurements must
   agree, whatever the policy parameters. *)

open Storage_units
open Storage_model
open Storage_presets
open Helpers
module Seeded = Storage_testkit.Seeded

(* A moderate pool of valid designs to draw from — the shared testkit
   pool (same kit, same grid as the historical in-file definition). *)
let pool = Seeded.pool ()

(* A structurally identical but physically fresh enumeration — used by the
   fingerprint tests to show keys depend only on structure. *)
let pool_again = Seeded.pool_again

let arb_design =
  QCheck.map (fun i -> List.nth pool (i mod List.length pool))
    QCheck.(int_range 0 1000)
  |> fun a ->
  QCheck.set_print (fun d -> d.Design.name) a

let scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]

let loss_seconds = function
  | Data_loss.Updates d -> Duration.to_seconds d
  | Data_loss.Entire_object -> infinity

let prop_total_is_outlays_plus_penalties =
  QCheck.Test.make ~name:"total cost = outlays + penalties" ~count:40
    arb_design (fun d ->
      List.for_all
        (fun sc ->
          let r = Evaluate.run d sc in
          Float.abs
            (Money.to_usd r.Evaluate.total_cost
            -. (Money.to_usd r.Evaluate.outlays.Cost.total
               +. Money.to_usd r.Evaluate.penalties.Cost.total))
          < 1e-6)
        scenarios)

let prop_site_never_easier_than_array =
  (* A site disaster destroys strictly more than an array failure, so its
     worst-case loss and recovery time dominate. *)
  QCheck.Test.make ~name:"site loss/RT >= array loss/RT" ~count:40 arb_design
    (fun d ->
      let array = Evaluate.run d Baseline.scenario_array in
      let site = Evaluate.run d Baseline.scenario_site in
      loss_seconds site.Evaluate.data_loss.Data_loss.loss
      >= loss_seconds array.Evaluate.data_loss.Data_loss.loss -. 1e-6
      && Duration.to_seconds site.Evaluate.recovery_time
         >= Duration.to_seconds array.Evaluate.recovery_time -. 1e-6)

let prop_no_errors_on_valid_designs =
  QCheck.Test.make ~name:"valid designs evaluate without errors" ~count:40
    arb_design (fun d ->
      List.for_all (fun sc -> (Evaluate.run d sc).Evaluate.errors = []) scenarios)

let prop_loss_matches_hierarchy_lag =
  (* For "now" targets, the reported loss equals the worst lag of the
     chosen recovery source level. *)
  QCheck.Test.make ~name:"loss equals source level's worst lag" ~count:40
    arb_design (fun d ->
      List.for_all
        (fun sc ->
          let r = Evaluate.run d sc in
          match
            ( r.Evaluate.data_loss.Data_loss.source_level,
              r.Evaluate.data_loss.Data_loss.loss )
          with
          | Some level, Data_loss.Updates loss when level > 0 ->
            Float.abs
              (Duration.to_seconds loss
              -. Duration.to_seconds
                   (Storage_hierarchy.Hierarchy.worst_lag
                      d.Design.hierarchy level))
            < 1e-6
          | _ -> true)
        scenarios)

let prop_sim_within_model_bounds =
  (* The expensive one: simulate each sampled design and check the
     measured loss against the analytical worst case. *)
  QCheck.Test.make ~name:"sim loss within model worst case (random designs)"
    ~count:10 arb_design (fun d ->
      let config =
        { Storage_sim.Sim.warmup = Duration.weeks 10.; outage = None; record_events = false }
      in
      List.for_all
        (fun sc ->
          let model = Evaluate.run d sc in
          let m = Storage_sim.Sim.run ~config d sc in
          loss_seconds m.Storage_sim.Sim.data_loss
          <= loss_seconds model.Evaluate.data_loss.Data_loss.loss +. 1.)
        scenarios)

let suite =
  [
    ( "random_designs",
      [
        qcheck prop_total_is_outlays_plus_penalties;
        qcheck prop_site_never_easier_than_array;
        qcheck prop_no_errors_on_valid_designs;
        qcheck prop_loss_matches_hierarchy_lag;
        qcheck prop_sim_within_model_bounds;
      ] );
  ]
