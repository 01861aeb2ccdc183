open Storage_units

type report = {
  design_name : string;
  scenario : Scenario.t;
  utilization : Utilization.report;
  data_loss : Data_loss.t;
  recovery : Recovery_time.timeline option;
  recovery_time : Duration.t;
  outlays : Cost.outlays;
  penalties : Cost.penalties;
  total_cost : Money.t;
  meets_rto : bool option;
  meets_rpo : bool option;
  errors : string list;
}

(* Stage timers: where a report's wall-clock goes, per metric of the
   paper's framework (utilization, recent data loss, recovery time, cost).
   All no-ops until the observability layer is enabled. *)
let t_run = Storage_obs.Timer.make "evaluate.run"
let t_utilization = Storage_obs.Timer.make "evaluate.stage.utilization"
let t_data_loss = Storage_obs.Timer.make "evaluate.stage.data_loss"
let t_recovery = Storage_obs.Timer.make "evaluate.stage.recovery_time"
let t_cost = Storage_obs.Timer.make "evaluate.stage.cost"

(* The scenario-independent stages — validation, normal-mode utilization,
   outlays — are hoisted into [prepare] and computed once per design;
   [run_prepared] then adds the per-scenario stages (data loss, recovery,
   penalties). Evaluating one design under several scenarios (the common
   case: every search sweep runs 2-3 failure scopes) shares the prepared
   half instead of recomputing it per scenario. *)
type prepared = {
  design : Design.t;
  validation_errors : string list;
  utilization : Utilization.report;
  outlays : Cost.outlays;
}

let prepare design =
  let validation_errors =
    match Design.validate design with Ok () -> [] | Error es -> es
  in
  let utilization =
    Storage_obs.Timer.time t_utilization (fun () ->
        Utilization.compute design)
  in
  let outlays =
    Storage_obs.Timer.time t_cost (fun () -> Cost.outlays design)
  in
  { design; validation_errors; utilization; outlays }

(* The per-scenario half, in the paper's order: data loss picks the
   recovery source (§3.3.3), recovery time follows from it (§3.3.4), and
   both are priced (§3.3.5) and checked against the RTO and RPO. Reports
   ([run_prepared]) and scores ([Objective.summarize]) both read it, so
   the compliance rules live here once. *)
type outcome = {
  o_data_loss : Data_loss.t;
  o_recovery : Recovery_time.timeline option;
  o_recovery_time : Duration.t;
  o_penalties : Cost.penalties;
  o_meets_rto : bool option;
  o_meets_rpo : bool option;
  o_errors : string list;
}

let assess design scenario =
  Storage_obs.Timer.time t_run @@ fun () ->
  let data_loss =
    Storage_obs.Timer.time t_data_loss (fun () ->
        Data_loss.compute design scenario)
  in
  let recovery, recovery_errors =
    Storage_obs.Timer.time t_recovery @@ fun () ->
    match data_loss.Data_loss.source_level with
    | None -> (None, [])
    | Some 0 -> (None, [])
    | Some source_level -> (
      match Recovery_time.compute design scenario ~source_level with
      | Ok t -> (Some t, [])
      | Error e -> (None, [ e ]))
  in
  let recovery_time =
    match recovery with
    | Some t -> t.Recovery_time.total
    | None -> Duration.zero
  in
  let business = design.Design.business in
  let penalties =
    Storage_obs.Timer.time t_cost (fun () ->
        Cost.penalties business ~recovery_time ~loss:data_loss.Data_loss.loss)
  in
  let meets objective value =
    Option.map (fun bound -> Duration.compare value bound <= 0) objective
  in
  let loss_duration =
    match data_loss.Data_loss.loss with
    | Data_loss.Updates d -> Some d
    | Data_loss.Entire_object -> None
  in
  {
    o_data_loss = data_loss;
    o_recovery = recovery;
    o_recovery_time = recovery_time;
    o_penalties = penalties;
    o_meets_rto = meets business.Business.recovery_time_objective recovery_time;
    o_meets_rpo =
      (match loss_duration with
      | Some d -> meets business.Business.recovery_point_objective d
      | None ->
        Option.map (fun _ -> false) business.Business.recovery_point_objective);
    o_errors = recovery_errors;
  }

let run_prepared p scenario =
  let o = assess p.design scenario in
  {
    design_name = p.design.Design.name;
    scenario;
    utilization = p.utilization;
    data_loss = o.o_data_loss;
    recovery = o.o_recovery;
    recovery_time = o.o_recovery_time;
    outlays = p.outlays;
    penalties = o.o_penalties;
    total_cost = Money.add p.outlays.Cost.total o.o_penalties.Cost.total;
    meets_rto = o.o_meets_rto;
    meets_rpo = o.o_meets_rpo;
    errors = p.validation_errors @ o.o_errors;
  }

let run design scenario = run_prepared (prepare design) scenario

let run_all design scenarios =
  let p = prepare design in
  List.map (run_prepared p) scenarios

let pp_summary ppf r =
  Fmt.pf ppf "%-24s %-16s RT %-10s DL %-10s pen %-9s total %s" r.design_name
    (Fmt.str "%a" Storage_device.Location.pp_scope r.scenario.Scenario.scope)
    (Duration.to_string r.recovery_time)
    (Fmt.str "%a" Data_loss.pp_loss r.data_loss.Data_loss.loss)
    (Money.to_string r.penalties.Cost.total)
    (Money.to_string r.total_cost)

let pp ppf r =
  Fmt.pf ppf
    "@[<v>=== %s under %a ===@,%a@,%a@,%a@,%a@,%a@,total cost: %a%a@]"
    r.design_name Scenario.pp r.scenario Utilization.pp r.utilization
    Data_loss.pp r.data_loss
    (Fmt.option Recovery_time.pp)
    r.recovery Cost.pp_outlays r.outlays Cost.pp_penalties r.penalties Money.pp
    r.total_cost
    (Fmt.list ~sep:Fmt.nop (fun ppf e -> Fmt.pf ppf "@,ERROR: %s" e))
    r.errors
