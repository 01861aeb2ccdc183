(* Simulator cross-validation: execute the baseline design in the
   discrete-event simulator and compare measured data loss and recovery
   time against the analytical worst cases, sweeping the failure instant
   across a backup cycle to expose its phase-dependence.

     dune exec examples/sim_vs_model.exe *)

open Storage_units
open Storage_model
open Storage_presets
open Storage_report

let config = { Storage_sim.Sim.warmup = Duration.weeks 12.; outage = None; record_events = false }

let loss_hours = function
  | Data_loss.Updates d -> Printf.sprintf "%.1f" (Duration.to_hours d)
  | Data_loss.Entire_object -> "total"

let rt_hours = function
  | Some d -> Printf.sprintf "%.2f" (Duration.to_hours d)
  | None -> "n/a"

let () =
  (* One run per paper scenario, against the model's worst cases. *)
  let rows =
    List.map
      (fun scenario ->
        let model = Evaluate.run Baseline.design scenario in
        let sim = Storage_sim.Sim.run ~config Baseline.design scenario in
        [
          Fmt.str "%a" Storage_device.Location.pp_scope
            scenario.Scenario.scope;
          loss_hours sim.Storage_sim.Sim.data_loss;
          loss_hours model.Evaluate.data_loss.Data_loss.loss;
          rt_hours sim.Storage_sim.Sim.recovery_time;
          Printf.sprintf "%.2f" (Duration.to_hours model.Evaluate.recovery_time);
        ])
      Baseline.scenarios
  in
  Table.print ~title:"Simulated vs analytical (baseline; hours)"
    ~headers:
      [ "Failure"; "sim DL"; "model worst DL"; "sim RT"; "model RT" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
    rows;

  (* Sweep the failure instant across one backup cycle: measured loss
     fluctuates with the phase but never exceeds the model's worst case. *)
  let scenario = Baseline.scenario_array in
  let model = Evaluate.run Baseline.design scenario in
  let worst =
    match model.Evaluate.data_loss.Data_loss.loss with
    | Data_loss.Updates d -> d
    | Data_loss.Entire_object -> Duration.zero
  in
  let steps = 14 in
  let offsets =
    List.init steps (fun i ->
        Duration.hours (float_of_int i *. 168. /. float_of_int steps))
  in
  let runs =
    Storage_sim.Sim.sweep_failure_phase ~config Baseline.design scenario
      ~offsets
  in
  print_endline
    (Printf.sprintf
       "Failure-phase sweep over one backup cycle (model worst DL = %.0f hr):"
       (Duration.to_hours worst));
  List.iteri
    (fun i (m : Storage_sim.Sim.measured) ->
      let dl =
        match m.Storage_sim.Sim.data_loss with
        | Data_loss.Updates d -> Duration.to_hours d
        | Data_loss.Entire_object -> nan
      in
      let bar = String.make (int_of_float (dl /. 4.)) '#' in
      Printf.printf "  +%3.0fh  DL %6.1f hr  %s\n"
        (float_of_int i *. 168. /. float_of_int steps)
        dl bar)
    runs;
  let max_dl =
    List.fold_left
      (fun acc (m : Storage_sim.Sim.measured) ->
        match m.Storage_sim.Sim.data_loss with
        | Data_loss.Updates d -> Float.max acc (Duration.to_hours d)
        | Data_loss.Entire_object -> acc)
      0. runs
  in
  Printf.printf
    "\nmax simulated DL %.1f hr <= model worst case %.0f hr: %b\n" max_dl
    (Duration.to_hours worst)
    (max_dl <= Duration.to_hours worst +. 1e-6)
