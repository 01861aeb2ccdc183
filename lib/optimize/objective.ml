open Storage_units
open Storage_model

type summary = {
  design : Design.t;
  reports : Evaluate.report list;
  outlays : Money.t;
  worst_recovery_time : Duration.t;
  worst_loss : Data_loss.loss;
  worst_penalties : Money.t;
  worst_total_cost : Money.t;
  feasible : bool;
}

(* The outlay total counts toward the cost stage, with the penalties
   [Evaluate.assess] prices under the same timer. *)
let t_cost = Storage_obs.Timer.make "evaluate.stage.cost"

(* The score reads only what it ranks by: validation, the outlay total
   and each scenario's {!Evaluate.assess}, folded in scenario order. No
   report is built, so no utilization report, outlay item list or
   component name either. *)
let summarize ?engine:_ design scenarios =
  if scenarios = [] then invalid_arg "Objective.summarize: no scenarios";
  let valid = Result.is_ok (Design.validate design) in
  let outlays = Storage_obs.Timer.time t_cost (fun () -> Cost.total design) in
  let rec worst recovery_time loss penalties feasible = function
    | [] ->
      {
        design;
        reports = [];
        outlays;
        worst_recovery_time = recovery_time;
        worst_loss = loss;
        worst_penalties = penalties;
        worst_total_cost = Money.add outlays penalties;
        feasible;
      }
    | scenario :: rest ->
      let o = Evaluate.assess design scenario in
      let l = o.Evaluate.o_data_loss.Data_loss.loss in
      worst
        (Duration.max recovery_time o.Evaluate.o_recovery_time)
        (if Data_loss.compare_loss l loss > 0 then l else loss)
        (Money.max penalties o.Evaluate.o_penalties.Cost.total)
        (feasible
        && o.Evaluate.o_errors = []
        && l <> Data_loss.Entire_object
        && Option.value ~default:true o.Evaluate.o_meets_rto
        && Option.value ~default:true o.Evaluate.o_meets_rpo)
        rest
  in
  worst Duration.zero (Data_loss.Updates Duration.zero) Money.zero valid
    scenarios

let pp ppf s =
  Fmt.pf ppf "%-32s out %-9s worst RT %-9s worst DL %-10s total %-9s%s"
    s.design.Design.name
    (Money.to_string s.outlays)
    (Duration.to_string s.worst_recovery_time)
    (Fmt.str "%a" Data_loss.pp_loss s.worst_loss)
    (Money.to_string s.worst_total_cost)
    (if s.feasible then "" else "  (infeasible)")
