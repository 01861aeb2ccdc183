open Storage_units
open Storage_model

type point = {
  value : float;
  recovery_time : Duration.t;
  loss : Data_loss.loss;
  outlays : Money.t;
  penalties : Money.t;
  total_cost : Money.t;
}

let point_of_report value (r : Evaluate.report) =
  {
    value;
    recovery_time = r.Evaluate.recovery_time;
    loss = r.Evaluate.data_loss.Data_loss.loss;
    outlays = r.Evaluate.outlays.Cost.total;
    penalties = r.Evaluate.penalties.Cost.total;
    total_cost = r.Evaluate.total_cost;
  }

let t_sweep = Storage_obs.Timer.make "sensitivity.sweep"
let obs_points = Storage_obs.Counter.make "sensitivity.points"

let sweep build ~values scenario =
  if values = [] then invalid_arg "Sensitivity.sweep: no values";
  Storage_obs.Counter.add obs_points (List.length values);
  Storage_obs.Timer.time t_sweep @@ fun () ->
  List.map
    (fun v -> point_of_report v (Evaluate.run (build v) scenario))
    values

let crossover build_a ~values scenario ~metric ~against =
  if values = [] then invalid_arg "Sensitivity.crossover: no values";
  let a = sweep build_a ~values scenario in
  let b = sweep against ~values scenario in
  List.find_opt
    (fun (pa, pb) -> metric pa >= metric pb)
    (List.combine a b)
  |> Option.map (fun (pa, _) -> pa.value)

let pp_point ppf p =
  Fmt.pf ppf "%8.2f: RT %-9s DL %-10s out %-9s pen %-9s total %s" p.value
    (Duration.to_string p.recovery_time)
    (Fmt.str "%a" Data_loss.pp_loss p.loss)
    (Money.to_string p.outlays)
    (Money.to_string p.penalties)
    (Money.to_string p.total_cost)
