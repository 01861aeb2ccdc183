open Storage_units
open Storage_device

type technique_share = {
  technique : string;
  demand : Demand.t;
  bandwidth_fraction : float;
  capacity_fraction : float;
}

type device_report = {
  device : Device.t;
  shares : technique_share list;
  total : Device.utilization;
}

type link_report = {
  link : Interconnect.t;
  demand : Rate.t;
  fraction : float option;
}

type report = {
  devices : device_report list;
  links : link_report list;
  system_bandwidth_fraction : float;
  system_capacity_fraction : float;
  overcommitted : bool;
}

let device_report design dev =
  let labeled = Design.loaded_demands_on design dev in
  let dev_bw = Device.max_bandwidth dev and dev_cap = Device.max_capacity dev in
  let shares =
    Demand.by_technique labeled
    |> List.map (fun (technique, demand) ->
           {
             technique;
             demand;
             bandwidth_fraction =
               (let bw = Demand.total_bw demand in
                if Rate.is_zero dev_bw then if Rate.is_zero bw then 0. else infinity
                else Rate.ratio bw dev_bw);
             capacity_fraction = Size.ratio demand.Demand.capacity dev_cap;
           })
  in
  { device = dev; shares; total = Design.device_utilization design dev }

let compute design =
  let device_reports =
    List.map (device_report design) (Design.devices design)
  in
  let link_reports =
    List.map
      (fun (link, _) ->
        let demand = Design.link_demand design link in
        let fraction =
          match Interconnect.bandwidth link with
          | None -> None
          | Some bw -> Some (Rate.ratio demand bw)
        in
        { link; demand; fraction })
      (Design.links design)
  in
  let max_over f =
    List.fold_left (fun acc r -> Float.max acc (f r)) 0. device_reports
  in
  let link_max =
    List.fold_left
      (fun acc r -> match r.fraction with Some f -> Float.max acc f | None -> acc)
      0. link_reports
  in
  let bw_frac =
    Float.max link_max (max_over (fun r -> r.total.Device.bandwidth_fraction))
  in
  let cap_frac = max_over (fun r -> r.total.Device.capacity_fraction) in
  {
    devices = device_reports;
    links = link_reports;
    system_bandwidth_fraction = bw_frac;
    system_capacity_fraction = cap_frac;
    overcommitted = bw_frac > 1. || cap_frac > 1.;
  }

let pp ppf report =
  let pp_share ppf s =
    Fmt.pf ppf "  %-16s bw %5.1f%%  cap %5.1f%%" s.technique
      (100. *. s.bandwidth_fraction)
      (100. *. s.capacity_fraction)
  in
  let pp_device ppf d =
    Fmt.pf ppf "@[<v>%s:@,%a@,  %-16s %a@]" d.device.Device.name
      (Fmt.list ~sep:Fmt.cut pp_share)
      d.shares "overall" Device.pp_utilization d.total
  in
  Fmt.pf ppf "@[<v>%a@,system: bw %.1f%%, cap %.1f%%%s@]"
    (Fmt.list ~sep:Fmt.cut pp_device)
    report.devices
    (100. *. report.system_bandwidth_fraction)
    (100. *. report.system_capacity_fraction)
    (if report.overcommitted then "  ** OVERCOMMITTED **" else "")
