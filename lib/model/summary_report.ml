open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy

let buffer_add = Buffer.add_string

let md_table buf ~headers rows =
  let line cells = "| " ^ String.concat " | " cells ^ " |\n" in
  buffer_add buf (line headers);
  buffer_add buf (line (List.map (fun _ -> "---") headers));
  List.iter (fun row -> buffer_add buf (line row)) rows;
  buffer_add buf "\n"

let duration_cell d = Duration.to_string d
let money_cell m = Money.to_string m

let loss_cell = function
  | Data_loss.Updates d -> duration_cell d
  | Data_loss.Entire_object -> "**entire object**"

let compliance_cell = function
  | None -> "n/a"
  | Some true -> "met"
  | Some false -> "**missed**"

let workload_section buf (design : Design.t) =
  let w = design.Design.workload in
  buffer_add buf "## Workload\n\n";
  md_table buf
    ~headers:[ "Data"; "Capacity"; "Access"; "Updates"; "Burstiness" ]
    [
      [
        w.Storage_workload.Workload.name;
        Size.to_string w.Storage_workload.Workload.data_capacity;
        Rate.to_string w.Storage_workload.Workload.avg_access_rate;
        Rate.to_string w.Storage_workload.Workload.avg_update_rate;
        Printf.sprintf "%.0fx" w.Storage_workload.Workload.burst_multiplier;
      ];
    ]

let hierarchy_section buf (design : Design.t) =
  buffer_add buf "## Protection hierarchy\n\n";
  let h = design.Design.hierarchy in
  let rows =
    List.mapi
      (fun j (l : Hierarchy.level) ->
        let schedule_cell =
          match Technique.schedule l.Hierarchy.technique with
          | None -> "—"
          | Some s ->
            Printf.sprintf "every %s, keeps %d"
              (duration_cell (Schedule.cycle_period s))
              s.Schedule.retention_count
        in
        [
          string_of_int j;
          Technique.name l.Hierarchy.technique;
          l.Hierarchy.device.Device.name;
          (match l.Hierarchy.link with
          | Some link -> link.Interconnect.name
          | None -> "—");
          schedule_cell;
          duration_cell (Hierarchy.worst_lag h j);
        ])
      (Hierarchy.levels h)
  in
  md_table buf
    ~headers:[ "Level"; "Technique"; "Device"; "Link"; "Schedule"; "Worst lag" ]
    rows;
  match Hierarchy.warnings h with
  | [] -> ()
  | warnings ->
    List.iter (fun w -> buffer_add buf ("> warning: " ^ w ^ "\n")) warnings;
    buffer_add buf "\n"

let utilization_section buf design =
  buffer_add buf "## Normal-mode utilization\n\n";
  let report = Utilization.compute design in
  let rows =
    List.map
      (fun (d : Utilization.device_report) ->
        [
          d.Utilization.device.Device.name;
          Printf.sprintf "%.1f%%"
            (100. *. d.Utilization.total.Device.bandwidth_fraction);
          Printf.sprintf "%.1f%%"
            (100. *. d.Utilization.total.Device.capacity_fraction);
          Rate.to_string d.Utilization.total.Device.bandwidth_used;
          Size.to_string d.Utilization.total.Device.capacity_used;
        ])
      report.Utilization.devices
  in
  md_table buf
    ~headers:[ "Device"; "Bandwidth"; "Capacity"; "Used bw"; "Used cap" ]
    rows;
  if report.Utilization.overcommitted then
    buffer_add buf "> **OVERCOMMITTED**: the hardware cannot carry this design.\n\n"

let scenarios_section buf design named_scenarios =
  buffer_add buf "## Failure scenarios\n\n";
  let rows =
    List.map
      (fun (name, scenario) ->
        let r = Evaluate.run design scenario in
        let source =
          match r.Evaluate.data_loss.Data_loss.source_level with
          | Some j ->
            Technique.name
              (Hierarchy.level design.Design.hierarchy j).Hierarchy.technique
          | None -> "—"
        in
        [
          name;
          Fmt.str "%a" Location.pp_scope scenario.Scenario.scope;
          source;
          duration_cell r.Evaluate.recovery_time;
          loss_cell r.Evaluate.data_loss.Data_loss.loss;
          money_cell r.Evaluate.penalties.Cost.total;
          compliance_cell r.Evaluate.meets_rto;
          compliance_cell r.Evaluate.meets_rpo;
        ])
      named_scenarios
  in
  md_table buf
    ~headers:
      [ "Scenario"; "Scope"; "Source"; "RT"; "Data loss"; "Penalties"; "RTO";
        "RPO" ]
    rows

let cost_section buf design =
  buffer_add buf "## Annual outlays\n\n";
  let outlays = Cost.outlays design in
  md_table buf ~headers:[ "Technique"; "Outlay" ]
    (List.map
       (fun (tech, amount) -> [ tech; money_cell amount ])
       outlays.Cost.by_technique
    @ [ [ "**total**"; money_cell outlays.Cost.total ] ])

let risk_section buf design weighted =
  let horizon = 10. in
  buffer_add buf "## Risk\n\n";
  let assessment = Risk.assess design weighted in
  md_table buf
    ~headers:[ "Scenario"; "Frequency"; "Per incident"; "Expected / yr" ]
    (List.map
       (fun (e : Risk.exposure) ->
         [
           Fmt.str "%a" Location.pp_scope
             e.Risk.weighted.Risk.scenario.Scenario.scope;
           Printf.sprintf "%.3g / yr" e.Risk.weighted.Risk.frequency_per_year;
           money_cell e.Risk.per_incident_penalty;
           money_cell e.Risk.expected_annual_penalty;
         ])
       assessment.Risk.exposures);
  buffer_add buf
    (Printf.sprintf "Expected annual cost: **%s** (outlays %s + penalties %s).\n\n"
       (money_cell assessment.Risk.expected_annual_cost)
       (money_cell assessment.Risk.annual_outlays)
       (money_cell assessment.Risk.expected_annual_penalty));
  let dist = Risk.monte_carlo design weighted ~horizon_years:horizon in
  buffer_add buf
    (Printf.sprintf
       "Monte-Carlo over %.0f years (%d samples): mean %s, p50 %s, p95 %s, \
        p99 %s, max %s.\n\n"
       dist.Risk.horizon_years dist.Risk.samples (money_cell dist.Risk.mean)
       (money_cell dist.Risk.p50) (money_cell dist.Risk.p95)
       (money_cell dist.Risk.p99) (money_cell dist.Risk.max))

let markdown ?risk design named_scenarios =
  if named_scenarios = [] then invalid_arg "Summary_report.markdown: no scenarios";
  let buf = Buffer.create 2048 in
  buffer_add buf
    (Printf.sprintf "# Dependability report: %s\n\n" design.Design.name);
  (match Design.validate design with
  | Ok () -> ()
  | Error es ->
    buffer_add buf "> **INVALID DESIGN**:\n";
    List.iter (fun e -> buffer_add buf ("> - " ^ e ^ "\n")) es;
    buffer_add buf "\n");
  workload_section buf design;
  hierarchy_section buf design;
  utilization_section buf design;
  scenarios_section buf design named_scenarios;
  cost_section buf design;
  (match risk with
  | Some weighted when weighted <> [] ->
    risk_section buf design weighted
  | Some _ | None -> ());
  Buffer.contents buf
