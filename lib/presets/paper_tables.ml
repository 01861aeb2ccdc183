open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
open Storage_report

let kib_s r = Printf.sprintf "%.0f KB/s" (Rate.to_kib_per_sec r)

let table2 () =
  let w = Cello.workload in
  let batch =
    Cello.batch_windows
    |> List.map (fun win ->
           Printf.sprintf "%s: %s"
             (Duration.to_string win)
             (kib_s (Workload.batch_update_rate w win)))
    |> String.concat "; "
  in
  Table.render ~title:"Table 2: cello workload parameters"
    ~headers:[ "dataCap"; "avgAccessR"; "avgUpdateR"; "burstM"; "batchUpdR(win)" ]
    [
      [
        Printf.sprintf "%.0f GB" (Size.to_gib w.Workload.data_capacity);
        kib_s w.Workload.avg_access_rate;
        kib_s w.Workload.avg_update_rate;
        Printf.sprintf "%.0fX" w.Workload.burst_multiplier;
        batch;
      ];
    ]

let schedule_row name (s : Schedule.t) =
  let d = Duration.to_string in
  [
    name;
    d s.Schedule.full.Schedule.accumulation;
    d s.Schedule.full.Schedule.propagation;
    d s.Schedule.full.Schedule.hold;
    d (Schedule.cycle_period s);
    string_of_int s.Schedule.retention_count;
    d (Schedule.retention_window s);
  ]

let table3 () =
  Table.render ~title:"Table 3: baseline data protection technique parameters"
    ~headers:[ "Technique"; "accW"; "propW"; "holdW"; "cyclePer"; "retCnt"; "retW" ]
    [
      schedule_row "Split mirror" Baseline.split_mirror_schedule;
      schedule_row "Tape backup" Baseline.backup_schedule;
      schedule_row "Remote vaulting" Baseline.vault_schedule;
    ]

let device_row (dev : Device.t) =
  [
    dev.Device.name;
    Printf.sprintf "%d@%.0fGB" dev.Device.max_capacity_slots
      (Size.to_gib dev.Device.slot_capacity);
    (if dev.Device.max_bandwidth_slots = 0 then "n/a"
     else
       Printf.sprintf "%d@%.0fMB/s" dev.Device.max_bandwidth_slots
         (Rate.to_mib_per_sec dev.Device.slot_bandwidth));
    (if Rate.is_zero dev.Device.enclosure_bandwidth then "n/a"
     else Printf.sprintf "%.0fMB/s" (Rate.to_mib_per_sec dev.Device.enclosure_bandwidth));
    (if Duration.is_zero dev.Device.access_delay then "n/a"
     else Printf.sprintf "%.2fhr" (Duration.to_hours dev.Device.access_delay));
    Fmt.str "%a" Cost_model.pp dev.Device.cost;
    Fmt.str "%a" Spare.pp dev.Device.spare;
  ]

let table4 () =
  Table.render ~title:"Table 4: baseline device configuration parameters"
    ~headers:
      [ "Device"; "slots@cap"; "slots@bw"; "enclBW"; "delay"; "cost model"; "spare" ]
    ([ Baseline.disk_array; Baseline.tape_library; Baseline.vault ]
     |> List.map device_row)

let figure1 () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 1: baseline storage system design (RP propagation downward)\n";
  let levels = Hierarchy.levels Baseline.design.Design.hierarchy in
  List.iteri
    (fun j (l : Hierarchy.level) ->
      (match l.Hierarchy.link with
      | Some link ->
        Buffer.add_string buf
          (Printf.sprintf "        |  via %s%s\n" link.Interconnect.name
             (if Duration.is_zero link.Interconnect.delay then ""
              else
                Printf.sprintf " (%s transit)"
                  (Duration.to_string link.Interconnect.delay)))
      | None -> if j > 0 then Buffer.add_string buf "        |\n");
      Buffer.add_string buf
        (Printf.sprintf "  [%d] %-18s on %-13s @ %s\n" j
           (Technique.name l.Hierarchy.technique)
           l.Hierarchy.device.Device.name
           (Fmt.str "%a" Location.pp l.Hierarchy.device.Device.location)))
    levels;
  Buffer.contents buf

(* One bar per window, scaled so that a full bar is the level's cycle. *)
let figure2 () =
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer
    "Figure 2: RP lifecycle per level (bars scaled to each cycle)\n";
  let bar cycle w =
    let frac = Duration.ratio w cycle in
    let cells = int_of_float (ceil (40. *. frac)) in
    let cells = min 40 (max (if Duration.is_zero w then 0 else 1) cells) in
    "[" ^ String.make cells '#' ^ String.make (40 - cells) ' ' ^ "]"
  in
  let level name (s : Schedule.t) =
    let cycle = Schedule.cycle_period s in
    Buffer.add_string buffer
      (Printf.sprintf "%s (cycle %s, retains %d cycles = %s)\n" name
         (Duration.to_string cycle) s.Schedule.retention_count
         (Duration.to_string (Schedule.retention_window s)));
    let window label w =
      Buffer.add_string buffer
        (Printf.sprintf "  %-11s %s %s\n" label (bar cycle w)
           (Duration.to_string w))
    in
    window "accumulate" s.Schedule.full.Schedule.accumulation;
    window "hold" s.Schedule.full.Schedule.hold;
    window "propagate" s.Schedule.full.Schedule.propagation;
    match s.Schedule.secondary with
    | None -> ()
    | Some (rep, w) ->
      Buffer.add_string buffer
        (Printf.sprintf "  + %d %s incrementals:\n" s.Schedule.cycle_count
           (Fmt.str "%a" Schedule.pp_representation rep));
      window "  accumulate" w.Schedule.accumulation;
      window "  propagate" w.Schedule.propagation
  in
  level "split mirror" Baseline.split_mirror_schedule;
  level "tape backup" Baseline.backup_schedule;
  level "remote vaulting" Baseline.vault_schedule;
  Buffer.contents buffer

let table5 () =
  let report = Utilization.compute Baseline.design in
  let rows =
    List.concat_map
      (fun (d : Utilization.device_report) ->
        let share (s : Utilization.technique_share) =
          [
            "  " ^ s.Utilization.technique;
            Metric.percent s.Utilization.bandwidth_fraction;
            Metric.percent s.Utilization.capacity_fraction;
          ]
        in
        let total = d.Utilization.total in
        [ d.Utilization.device.Device.name ]
        :: List.map share d.Utilization.shares
        @ [
            [
              "  overall";
              Printf.sprintf "%s (%s MB/s)"
                (Metric.percent total.Device.bandwidth_fraction)
                (Metric.mib_per_sec total.Device.bandwidth_used);
              Printf.sprintf "%s (%s TB)"
                (Metric.percent total.Device.capacity_fraction)
                (Metric.tib total.Device.capacity_used);
            ];
          ])
      report.Utilization.devices
  in
  Table.render ~title:"Table 5: normal mode utilization (baseline)"
    ~headers:[ "Device / technique"; "Bandwidth"; "Capacity" ]
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    (rows
    @ [
        [
          "system overall";
          Metric.percent report.Utilization.system_bandwidth_fraction;
          Metric.percent report.Utilization.system_capacity_fraction;
        ];
      ])

let source_name (r : Evaluate.report) =
  match r.Evaluate.data_loss.Data_loss.source_level with
  | None -> "-"
  | Some j ->
    Technique.name
      (Hierarchy.level Baseline.design.Design.hierarchy j).Hierarchy.technique

let scope_name (r : Evaluate.report) =
  Fmt.str "%a" Location.pp_scope r.Evaluate.scenario.Scenario.scope

let loss_hours (r : Evaluate.report) =
  match r.Evaluate.data_loss.Data_loss.loss with
  | Data_loss.Updates d when Duration.to_hours d < 1. ->
    Printf.sprintf "%.2f hr" (Duration.to_hours d)
  | Data_loss.Updates d -> Printf.sprintf "%s hr" (Metric.hours d)
  | Data_loss.Entire_object -> "entire object"

let table6 () =
  let reports = Evaluate.run_all Baseline.design Baseline.scenarios in
  Table.render ~title:"Table 6: worst case recovery time and data loss (baseline)"
    ~headers:[ "Failure scope"; "Recovery source"; "Recovery time"; "Recent data loss" ]
    (List.map
       (fun (r : Evaluate.report) ->
         let rt =
           if Duration.to_seconds r.Evaluate.recovery_time < 60. then
             Printf.sprintf "%s s" (Metric.seconds r.Evaluate.recovery_time)
           else Printf.sprintf "%s hr" (Metric.hours r.Evaluate.recovery_time)
         in
         [ scope_name r; source_name r; rt; loss_hours r ])
       reports)

let table7 () =
  let rows =
    List.concat_map
      (fun (name, design) ->
        List.map
          (fun scenario ->
            let r = Evaluate.run design scenario in
            [
              name;
              Fmt.str "%a" Location.pp_scope scenario.Scenario.scope;
              Metric.money_m r.Evaluate.outlays.Cost.total;
              Metric.hours r.Evaluate.recovery_time;
              loss_hours r;
              Metric.money_m r.Evaluate.penalties.Cost.total;
              Metric.money_m r.Evaluate.total_cost;
            ])
          [ Baseline.scenario_array; Baseline.scenario_site ])
      Whatif.all
  in
  Table.render ~title:"Table 7: what-if scenario results"
    ~headers:
      [ "Storage system design"; "Failure"; "Outlays"; "RT (hr)"; "DL"; "Penalties"; "Total" ]
    ~aligns:
      [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right;
        Table.Right; Table.Right ]
    rows

let figure3 () =
  let h = Baseline.design.Design.hierarchy in
  let rows =
    List.init (Hierarchy.length h) (fun j ->
        let l = Hierarchy.level h j in
        let range =
          match Hierarchy.guaranteed_range h j with
          | Some r -> Fmt.str "%a" Age_range.pp r
          | None -> "(nothing guaranteed)"
        in
        [
          string_of_int j;
          Technique.name l.Hierarchy.technique;
          Duration.to_string (Hierarchy.worst_lag h j);
          Duration.to_string (Hierarchy.best_lag h j);
          range;
        ])
  in
  Table.render ~title:"Figure 3: guaranteed RP ranges per level (baseline)"
    ~headers:[ "Level"; "Technique"; "Worst lag"; "Best lag"; "Guaranteed range" ]
    rows

let figure4 () =
  let r = Evaluate.run Baseline.design Baseline.scenario_site in
  match r.Evaluate.recovery with
  | None -> "Figure 4: no recovery path"
  | Some t ->
    let rows =
      List.map
        (fun (h : Recovery_time.hop) ->
          [
            Printf.sprintf "%d -> %d" h.Recovery_time.from_level
              h.Recovery_time.to_level;
            Duration.to_string h.Recovery_time.transit;
            Duration.to_string h.Recovery_time.par_fix;
            Duration.to_string h.Recovery_time.ser_fix;
            Duration.to_string h.Recovery_time.transfer;
            (match h.Recovery_time.transfer_rate with
            | Some rate -> Rate.to_string rate
            | None -> "media");
            Duration.to_string h.Recovery_time.ready_at;
          ])
        t.Recovery_time.hops
    in
    Table.render
      ~title:
        (Printf.sprintf
           "Figure 4: recovery task decomposition, site disaster (total %s)"
           (Duration.to_string t.Recovery_time.total))
      ~headers:[ "Hop"; "Transit"; "parFix"; "serFix"; "serXfer"; "Rate"; "Ready at" ]
      rows

let figure5 () =
  let outlay_rows =
    (Cost.outlays Baseline.design).Cost.by_technique
    |> List.map (fun (tech, amount) ->
           [ "outlay: " ^ tech; ""; Metric.money_m amount ])
  in
  let penalty_rows =
    Evaluate.run_all Baseline.design Baseline.scenarios
    |> List.concat_map (fun (r : Evaluate.report) ->
           [
             [
               "penalty: outage";
               scope_name r;
               Metric.money_m r.Evaluate.penalties.Cost.outage;
             ];
             [
               "penalty: recent data loss";
               scope_name r;
               Metric.money_m r.Evaluate.penalties.Cost.loss;
             ];
             [ "total cost"; scope_name r; Metric.money_m r.Evaluate.total_cost ];
           ])
  in
  Table.render ~title:"Figure 5: overall system cost (baseline)"
    ~headers:[ "Component"; "Failure scope"; "Annual cost" ]
    ~aligns:[ Table.Left; Table.Left; Table.Right ]
    (outlay_rows @ penalty_rows)

let artifacts =
  [
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("figure1", figure1);
    ("figure2", figure2);
    ("table5", table5);
    ("table6", table6);
    ("figure3", figure3);
    ("figure4", figure4);
    ("figure5", figure5);
    ("table7", table7);
  ]

let all () =
  String.concat "\n\n" (List.map (fun (_, render) -> render ()) artifacts)
