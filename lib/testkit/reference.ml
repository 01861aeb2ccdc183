(* The derived-data reference: every accessor of [Design]'s derived table
   recomputed from the public per-level functions, one list pass per
   question. This is the list-plumbing form the table's single walk
   replaced; it lives here so that the walk has something independent to
   answer to ([Oracle.derived_mismatch] compares the two bit for bit). *)

open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model

let levels (d : Design.t) = Hierarchy.levels d.Design.hierarchy
let same_name (a : Device.t) (b : Device.t) =
  String.equal a.Device.name b.Device.name

let devices d =
  List.rev
    (List.fold_left
       (fun acc (l : Hierarchy.level) ->
         if List.exists (same_name l.device) acc then acc else l.device :: acc)
       [] (levels d))

(* Colocated techniques are charged the primary array's RAID capacity
   factor, everything else logical capacity (§3.2.3). *)
let placements (d : Design.t) =
  let h = d.Design.hierarchy in
  List.mapi
    (fun j (l : Hierarchy.level) ->
      let upstream =
        if j = 0 then None
        else Technique.schedule (Hierarchy.level h (j - 1)).Hierarchy.technique
      in
      let host_raid =
        if Technique.colocated_with_primary l.technique then
          Design.primary_raid d
        else Raid.Raid0
      in
      ( j,
        l,
        Demands.of_technique ~workload:d.Design.workload ~host_raid ?upstream
          l.technique ))
    (levels d)

(* A level's [on_target] lands on its own device, its [on_source] on the
   previous level's; zero demands are left out. *)
let demands_on (d : Design.t) dev =
  let h = d.Design.hierarchy in
  List.concat_map
    (fun (j, (l : Hierarchy.level), (p : Demands.placement)) ->
      let label demand =
        { Demand.technique = Technique.name l.technique; demand }
      in
      let target =
        if same_name l.device dev then [ label p.on_target ] else []
      in
      let source =
        if j > 0 && same_name (Hierarchy.level h (j - 1)).Hierarchy.device dev
        then [ label p.on_source ]
        else []
      in
      target @ source)
    (placements d)
  |> List.filter (fun l -> not (Demand.is_zero l.Demand.demand))

let background (d : Design.t) (dev : Device.t) =
  Option.value ~default:[] (List.assoc_opt dev.Device.name d.Design.background)

let loaded_demands_on d dev = demands_on d dev @ background d dev
let device_utilization d dev = Device.utilization dev (loaded_demands_on d dev)
let demand_shares d dev = Demand.by_technique (demands_on d dev)

(* §3.3.5: the lowest level hosted on a device owns it. *)
let primary_technique_of_device d dev =
  match
    List.find_opt
      (fun (l : Hierarchy.level) -> same_name l.device dev)
      (levels d)
  with
  | Some l -> Technique.name l.technique
  | None -> invalid_arg "Design.primary_technique_of_device: unknown device"

let links d =
  List.rev
    (List.fold_left
       (fun acc (l : Hierarchy.level) ->
         match l.link with
         | Some link
           when not
                  (List.exists
                     (fun ((k : Interconnect.t), _) ->
                       String.equal k.Interconnect.name link.Interconnect.name)
                     acc) ->
           (link, l.technique) :: acc
         | Some _ | None -> acc)
       [] (levels d))

let link_demand d (link : Interconnect.t) =
  List.fold_left
    (fun acc (_, (l : Hierarchy.level), (p : Demands.placement)) ->
      match l.link with
      | Some k when String.equal k.Interconnect.name link.Interconnect.name ->
        Rate.add acc p.on_link
      | Some _ | None -> acc)
    Rate.zero (placements d)

(* [Design.validate]'s three error families, in its order: devices, then
   per-level link requirements, then aggregate link demand. *)
let validate (d : Design.t) =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun (dev : Device.t) ->
      let u = device_utilization d dev in
      if u.Device.capacity_fraction > 1. then
        err "device %s capacity overcommitted: %.1f%%" dev.Device.name
          (100. *. u.Device.capacity_fraction);
      if u.Device.bandwidth_fraction > 1. then
        err "device %s bandwidth overcommitted: %.1f%%" dev.Device.name
          (100. *. u.Device.bandwidth_fraction))
    (devices d);
  List.iter
    (fun (l : Hierarchy.level) ->
      let required =
        Demands.required_link_bandwidth ~workload:d.Design.workload l.technique
      in
      if not (Rate.is_zero required) then
        match l.link with
        | None -> err "%s requires an interconnect" (Technique.name l.technique)
        | Some link -> (
          match Interconnect.bandwidth link with
          | Some bw when Rate.compare bw required < 0 ->
            err "link %s (%s) cannot sustain %s traffic (%s required)"
              link.Interconnect.name (Rate.to_string bw)
              (Technique.name l.technique) (Rate.to_string required)
          | Some _ | None -> ()))
    (levels d);
  List.iter
    (fun ((link : Interconnect.t), _) ->
      match Interconnect.bandwidth link with
      | Some bw ->
        let demand = link_demand d link in
        if Rate.compare demand bw > 0 then
          err
            "link %s oversubscribed: aggregate propagation demand %s exceeds \
             bandwidth %s"
            link.Interconnect.name (Rate.to_string demand) (Rate.to_string bw)
      | None -> ())
    (links d);
  match !errors with [] -> Ok () | es -> Error (List.rev es)

let rp_interval_min (d : Design.t) j =
  match
    Technique.schedule
      (Hierarchy.level d.Design.hierarchy j).Hierarchy.technique
  with
  | Some s -> Schedule.rp_interval_min s
  | None -> Duration.zero
