open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy

(* Everything the evaluation pipeline derives from a design's structure,
   filled in one walk over the level array and memoized. Each record field
   is pure marshalable data (no closures, no lazies): designs are routinely
   marshaled by the byte-identity test suites, and the whole record is
   always computed in one shot, so two structurally equal designs that have
   both been touched by any accessor marshal identically.

   One entry per distinct device (identity by name), in first-appearance
   order: the technique of the lowest level hosted on it (the owner
   §3.3.5 charges the fixed cost), this design's own labeled demands on
   it, those plus the background tenants' (the same list when there are
   none), the own demands' per-technique shares, and the utilization under
   the loaded demands. *)
type device_entry = {
  e_device : Device.t;
  e_owner : string;
  e_demands : Demand.labeled list;
  e_loaded : Demand.labeled list;
  e_shares : (string * Demand.t) list;
  e_utilization : Device.utilization;
}

(* [d_devices] and [d_links] are what {!devices} and {!links} return;
   [d_entries] and [d_link_demands] follow them entry for entry. *)
type derived = {
  d_devices : Device.t list;
  d_entries : device_entry list;
  d_links : (Interconnect.t * Technique.t) list;
  d_link_demands : Rate.t list;
  d_validation : (unit, string list) result;
  d_level_lags : Hierarchy.lag array;
}

type t = {
  name : string;
  workload : Workload.t;
  hierarchy : Hierarchy.t;
  business : Business.t;
  background : (string * Demand.labeled list) list;
  fingerprint_memo : string option Atomic.t;
  derived_memo : derived option Atomic.t;
}

let make ~name ~workload ~hierarchy ~business ?(background = []) () =
  { name; workload; hierarchy; business; background;
    fingerprint_memo = Atomic.make None;
    derived_memo = Atomic.make None }

let strip t =
  { t with
    fingerprint_memo = Atomic.make None;
    derived_memo = Atomic.make None }

let primary_raid t =
  match (Hierarchy.primary t.hierarchy).Hierarchy.technique with
  | Technique.Primary_copy { raid } -> raid
  | _ -> assert false (* enforced by Hierarchy.make *)

(* The RAID capacity factor charged for a level's copies: colocated
   techniques inherit the primary array's organization; everything else is
   charged logical capacity (§3.2.3 charges mirror destinations "the data
   capacity"). *)
let host_raid_for t (l : Hierarchy.level) =
  if Technique.colocated_with_primary l.technique then primary_raid t
  else Raid.Raid0

let placement t j =
  let h = t.hierarchy in
  let l = Hierarchy.level h j in
  let upstream =
    if j = 0 then None
    else Technique.schedule (Hierarchy.level h (j - 1)).Hierarchy.technique
  in
  Demands.of_technique ~workload:t.workload ~host_raid:(host_raid_for t l)
    ?upstream l.technique

let background_on t name =
  match List.assoc_opt name t.background with
  | Some demands -> demands
  | None -> []

(* The index of the entry named [name] among the first [count] of
   [names], or [count] when there is none. *)
let slot_of names count name =
  let rec go i =
    if i = count || String.equal names.(i) name then i else go (i + 1)
  in
  go 0

(* The error conditions here must stay in one-to-one correspondence with
   [Storage_lint]'s design-wide error rules (E010-E013, E018): [validate]
   is the evaluation-time shim (it cannot call the lint library, which
   sits above this one), and the [test_lint] property suite checks that a
   design fails here iff it carries a lint error. *)
let compute_validation t entries links link_demands =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  List.iter
    (fun e ->
      let name = e.e_device.Device.name and u = e.e_utilization in
      if u.Device.capacity_fraction > 1. then
        err "device %s capacity overcommitted: %.1f%%" name
          (100. *. u.Device.capacity_fraction);
      if u.Device.bandwidth_fraction > 1. then
        err "device %s bandwidth overcommitted: %.1f%%" name
          (100. *. u.Device.bandwidth_fraction))
    entries;
  for j = 0 to Hierarchy.length t.hierarchy - 1 do
    let l = Hierarchy.level t.hierarchy j in
    let required =
      Demands.required_link_bandwidth ~workload:t.workload l.technique
    in
    if not (Rate.is_zero required) then begin
      match l.link with
      | None -> err "%s requires an interconnect" (Technique.name l.technique)
      | Some link -> (
        match Interconnect.bandwidth link with
        | Some bw when Rate.compare bw required < 0 ->
          err "link %s (%s) cannot sustain %s traffic (%s required)"
            link.Interconnect.name (Rate.to_string bw)
            (Technique.name l.technique)
            (Rate.to_string required)
        | Some _ | None -> ())
    end
  done;
  (* Aggregate oversubscription: levels sharing an interconnect must fit
     on it together (§3.3.1's global check applied to links). *)
  List.iter2
    (fun ((link : Interconnect.t), _) demand ->
      match Interconnect.bandwidth link with
      | Some bw when Rate.compare demand bw > 0 ->
        err
          "link %s oversubscribed: aggregate propagation demand %s exceeds \
           bandwidth %s"
          link.Interconnect.name (Rate.to_string demand) (Rate.to_string bw)
      | Some _ | None -> ())
    links link_demands;
  match !errors with [] -> Ok () | es -> Error (List.rev es)

(* One walk up the level array places every level's demands (§3.2.3):
   its [on_target] lands on its own device, its [on_source] on the
   previous level's, its [on_link] on its interconnect. Devices and links
   are numbered by first appearance; a link's demand is summed from zero
   in level order. A second walk, down the levels, conses each device's
   demand list in level order (target before source within a level)
   without reversing it; zero demands are left out. *)
let compute_derived t =
  let h = t.hierarchy in
  let n = Hierarchy.length h in
  let placements = Array.init n (placement t) in
  let primary = Hierarchy.primary h in
  let device_slot = Array.make n 0 in
  let devices = Array.make n primary.Hierarchy.device in
  let device_names = Array.make n "" in
  let owners = Array.make n "" in
  let device_count = ref 0 in
  let link_names = Array.make n "" in
  let link_sums = Array.make n Rate.zero in
  let links = ref [] in
  let link_count = ref 0 in
  for j = 0 to n - 1 do
    let l = Hierarchy.level h j in
    let name = l.device.Device.name in
    let i = slot_of device_names !device_count name in
    if i = !device_count then begin
      devices.(i) <- l.device;
      device_names.(i) <- name;
      owners.(i) <- Technique.name l.technique;
      incr device_count
    end;
    device_slot.(j) <- i;
    match l.link with
    | None -> ()
    | Some link ->
      let k = slot_of link_names !link_count link.Interconnect.name in
      if k = !link_count then begin
        link_names.(k) <- link.Interconnect.name;
        links := (link, l.technique) :: !links;
        incr link_count
      end;
      link_sums.(k) <- Rate.add link_sums.(k) placements.(j).Demands.on_link
  done;
  let own = Array.make !device_count [] in
  for j = n - 1 downto 0 do
    let p = placements.(j) in
    let technique = Technique.name (Hierarchy.level h j).Hierarchy.technique in
    if j > 0 && not (Demand.is_zero p.Demands.on_source) then begin
      let i = device_slot.(j - 1) in
      own.(i) <- { Demand.technique; demand = p.Demands.on_source } :: own.(i)
    end;
    if not (Demand.is_zero p.Demands.on_target) then begin
      let i = device_slot.(j) in
      own.(i) <- { Demand.technique; demand = p.Demands.on_target } :: own.(i)
    end
  done;
  let entries =
    List.init !device_count (fun i ->
        let device = devices.(i) and demands = own.(i) in
        let loaded =
          match background_on t device.Device.name with
          | [] -> demands
          | background -> demands @ background
        in
        {
          e_device = device;
          e_owner = owners.(i);
          e_demands = demands;
          e_loaded = loaded;
          e_shares = Demand.by_technique demands;
          e_utilization = Device.utilization device loaded;
        })
  in
  let links = List.rev !links in
  let link_demands = List.init !link_count (Array.get link_sums) in
  {
    d_devices = List.map (fun e -> e.e_device) entries;
    d_entries = entries;
    d_links = links;
    d_link_demands = link_demands;
    d_validation = compute_validation t entries links link_demands;
    d_level_lags = Hierarchy.lags h;
  }

let derived t =
  match Atomic.get t.derived_memo with
  | Some d -> d
  | None ->
    (* Domains racing here compute structurally equal records; whichever
       store wins is indistinguishable to readers. *)
    let d = compute_derived t in
    Atomic.set t.derived_memo (Some d);
    d

let devices t = (derived t).d_devices
let links t = (derived t).d_links

let device t name =
  List.find_opt (fun d -> String.equal d.Device.name name) (devices t)

let rec entry_named name = function
  | [] -> raise Not_found
  | e :: rest ->
    if String.equal e.e_device.Device.name name then e
    else entry_named name rest

let entry t (dev : Device.t) = entry_named dev.Device.name (derived t).d_entries

let demands_on t dev =
  match entry t dev with
  | e -> e.e_demands
  | exception Not_found ->
    [] (* not a hierarchy device: it carries none of our demands *)

let loaded_demands_on t dev =
  match entry t dev with
  | e -> e.e_loaded
  | exception Not_found -> background_on t dev.Device.name

let device_utilization t dev =
  match entry t dev with
  | e -> e.e_utilization
  | exception Not_found -> Device.utilization dev (loaded_demands_on t dev)

let demand_shares t dev =
  match entry t dev with e -> e.e_shares | exception Not_found -> []

let primary_technique_of_device t dev =
  match entry t dev with
  | e -> e.e_owner
  | exception Not_found ->
    invalid_arg "Design.primary_technique_of_device: unknown device"

let rec demand_of_link name links demands =
  match (links, demands) with
  | ((link : Interconnect.t), _) :: links, demand :: demands ->
    if String.equal link.Interconnect.name name then demand
    else demand_of_link name links demands
  | _ -> Rate.zero (* not a hierarchy link: no level propagates over it *)

let link_demand t (link : Interconnect.t) =
  let d = derived t in
  demand_of_link link.Interconnect.name d.d_links d.d_link_demands

let validate t = (derived t).d_validation

let level_lag_exn t j =
  let lags = (derived t).d_level_lags in
  if j < 0 || j >= Array.length lags then
    invalid_arg "Design.level_lag: level out of range";
  lags.(j)

let worst_lag t j = (level_lag_exn t j).Hierarchy.worst
let guaranteed_range t j = (level_lag_exn t j).Hierarchy.range
let rp_interval_min t j = (level_lag_exn t j).Hierarchy.rp_interval_min

(* Structural fingerprint: an explicit walk over every design parameter,
   folded into a {!Storage_units.Struct_hash} accumulator. Compared with
   the Marshal + MD5 digest it replaced this allocates no byte buffer, and
   like it the result depends only on the structure, never on how the
   value was built. Every variant constructor feeds a distinct tag and
   every list is length-prefixed, so distinct structures cannot collide by
   concatenation; the memo fields are excluded. *)
module H = Struct_hash

let hash_duration h d = H.float h (Duration.to_seconds d)
let hash_rate h r = H.float h (Rate.to_bytes_per_sec r)
let hash_size h s = H.float h (Size.to_bytes s)
let hash_money h m = H.float h (Money.to_usd m)
let hash_money_rate h m = H.float h (Money_rate.to_usd_per_sec m)

let hash_raid h = function
  | Raid.Raid0 -> H.int h 0
  | Raid.Raid1 -> H.int h 1
  | Raid.Raid5 { stripe_width } -> H.int (H.int h 2) stripe_width
  | Raid.Raid10 -> H.int h 3

let hash_representation h (r : Schedule.representation) =
  H.int h
    (match r with Full -> 0 | Cumulative -> 1 | Differential -> 2)

let hash_windows h (w : Schedule.windows) =
  hash_duration
    (hash_duration (hash_duration h w.Schedule.accumulation)
       w.Schedule.propagation)
    w.Schedule.hold

let hash_schedule h (s : Schedule.t) =
  let h = hash_windows h s.Schedule.full in
  let h =
    H.option
      (fun h (r, w) -> hash_windows (hash_representation h r) w)
      h s.Schedule.secondary
  in
  let h = H.int h s.Schedule.cycle_count in
  let h = H.int h s.Schedule.retention_count in
  hash_representation h s.Schedule.copy_representation

let hash_mirror_mode h (m : Technique.mirror_mode) =
  H.int h
    (match m with
    | Synchronous -> 0
    | Asynchronous -> 1
    | Asynchronous_batch -> 2)

let hash_technique h (tq : Technique.t) =
  match tq with
  | Technique.Primary_copy { raid } -> hash_raid (H.int h 0) raid
  | Technique.Split_mirror s -> hash_schedule (H.int h 1) s
  | Technique.Virtual_snapshot s -> hash_schedule (H.int h 2) s
  | Technique.Remote_mirror { mode; schedule } ->
    hash_schedule (hash_mirror_mode (H.int h 3) mode) schedule
  | Technique.Backup s -> hash_schedule (H.int h 4) s
  | Technique.Vaulting s -> hash_schedule (H.int h 5) s
  | Technique.Erasure_coded { fragments; required; schedule } ->
    hash_schedule (H.int (H.int (H.int h 6) fragments) required) schedule

let hash_location h (l : Location.t) =
  H.string
    (H.string (H.string h l.Location.building) l.Location.site)
    l.Location.region

let hash_spare h (s : Spare.t) =
  match s with
  | Spare.No_spare -> H.int h 0
  | Spare.Dedicated { provisioning_time } ->
    hash_duration (H.int h 1) provisioning_time
  | Spare.Shared { provisioning_time; discount } ->
    H.float (hash_duration (H.int h 2) provisioning_time) discount

let hash_cost_model h (c : Cost_model.t) =
  H.float
    (H.float
       (H.float (hash_money h c.Cost_model.fixed) c.Cost_model.per_gib)
       c.Cost_model.per_mib_per_sec)
    c.Cost_model.per_shipment

let hash_device h (d : Device.t) =
  let h = H.string h d.Device.name in
  let h = hash_location h d.Device.location in
  let h = H.int h d.Device.max_capacity_slots in
  let h = hash_size h d.Device.slot_capacity in
  let h = H.int h d.Device.max_bandwidth_slots in
  let h = hash_rate h d.Device.slot_bandwidth in
  let h = hash_rate h d.Device.enclosure_bandwidth in
  let h = hash_duration h d.Device.access_delay in
  let h = hash_cost_model h d.Device.cost in
  hash_spare (hash_spare h d.Device.spare) d.Device.remote_spare

let hash_transport h (tr : Interconnect.transport) =
  match tr with
  | Interconnect.Network { link_bandwidth; links } ->
    H.int (hash_rate (H.int h 0) link_bandwidth) links
  | Interconnect.Shipment -> H.int h 1

let hash_interconnect h (i : Interconnect.t) =
  let h = H.string h i.Interconnect.name in
  let h = hash_transport h i.Interconnect.transport in
  let h = hash_duration h i.Interconnect.delay in
  hash_spare (hash_cost_model h i.Interconnect.cost) i.Interconnect.spare

let hash_level h (l : Hierarchy.level) =
  H.option hash_interconnect
    (hash_device (hash_technique h l.Hierarchy.technique) l.Hierarchy.device)
    l.Hierarchy.link

let hash_workload h (w : Workload.t) =
  let h = H.string h w.Workload.name in
  let h = hash_size h w.Workload.data_capacity in
  let h = hash_rate h w.Workload.avg_access_rate in
  let h = hash_rate h w.Workload.avg_update_rate in
  let h = H.float h w.Workload.burst_multiplier in
  H.list
    (fun h (d, r) -> hash_rate (hash_duration h d) r)
    h
    (Batch_curve.samples w.Workload.batch_curve)

let hash_business h (b : Business.t) =
  let h = hash_money_rate h b.Business.outage_penalty_rate in
  let h = hash_money_rate h b.Business.loss_penalty_rate in
  let h = H.option hash_duration h b.Business.recovery_time_objective in
  let h = H.option hash_duration h b.Business.recovery_point_objective in
  hash_duration h b.Business.total_loss_equivalent

let hash_labeled h (l : Demand.labeled) =
  let h = H.string h l.Demand.technique in
  let d = l.Demand.demand in
  hash_size
    (hash_rate (hash_rate h d.Demand.read_bw) d.Demand.write_bw)
    d.Demand.capacity

let fingerprint t =
  match Atomic.get t.fingerprint_memo with
  | Some fp -> fp
  | None ->
    let h = H.string H.init t.name in
    let h = hash_workload h t.workload in
    let h = H.list hash_level h (Hierarchy.levels t.hierarchy) in
    let h = hash_business h t.business in
    let h =
      H.list
        (fun h (name, demands) ->
          H.list hash_labeled (H.string h name) demands)
        h t.background
    in
    let fp = H.to_hex h in
    Atomic.set t.fingerprint_memo (Some fp);
    fp

let pp ppf t =
  Fmt.pf ppf "@[<v>design %s:@,%a@,%a@,business: %a@]" t.name Workload.pp
    t.workload Hierarchy.pp t.hierarchy Business.pp t.business
