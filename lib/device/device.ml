open Storage_units

type t = {
  name : string;
  location : Location.t;
  max_capacity_slots : int;
  slot_capacity : Size.t;
  max_bandwidth_slots : int;
  slot_bandwidth : Rate.t;
  enclosure_bandwidth : Rate.t;
  access_delay : Duration.t;
  cost : Cost_model.t;
  spare : Spare.t;
  remote_spare : Spare.t;
}

let make ~name ~location ~max_capacity_slots ~slot_capacity
    ?(max_bandwidth_slots = 0) ?(slot_bandwidth = Rate.zero)
    ?(enclosure_bandwidth = Rate.zero) ?(access_delay = Duration.zero)
    ?(cost = Cost_model.free) ?(spare = Spare.No_spare)
    ?(remote_spare = Spare.No_spare) () =
  if max_capacity_slots <= 0 then
    invalid_arg "Device.make: non-positive capacity slots";
  if Size.is_zero slot_capacity then
    invalid_arg "Device.make: zero slot capacity";
  if max_bandwidth_slots < 0 then
    invalid_arg "Device.make: negative bandwidth slots";
  {
    name;
    location;
    max_capacity_slots;
    slot_capacity;
    max_bandwidth_slots;
    slot_bandwidth;
    enclosure_bandwidth;
    access_delay;
    cost;
    spare;
    remote_spare;
  }

let max_capacity t =
  Size.scale (float_of_int t.max_capacity_slots) t.slot_capacity

(* The paper prints max(enclBW, slots * slotBW); its case study requires min.
   See DESIGN.md, "Reverse-engineered details". *)
let max_bandwidth t =
  let slots_bw = Rate.scale (float_of_int t.max_bandwidth_slots) t.slot_bandwidth in
  if Rate.is_zero t.enclosure_bandwidth then slots_bw
  else if Rate.is_zero slots_bw then t.enclosure_bandwidth
  else Rate.min t.enclosure_bandwidth slots_bw

let is_capacity_only t = Rate.is_zero (max_bandwidth t)

let spare_for t ~scope =
  if Location.needs_remote_spare scope then t.remote_spare else t.spare

type utilization = {
  capacity_used : Size.t;
  bandwidth_used : Rate.t;
  capacity_fraction : float;
  bandwidth_fraction : float;
  capacity_slots_needed : int;
  bandwidth_slots_needed : int;
}

let slots_for amount per_slot =
  if per_slot <= 0. then 0 else int_of_float (ceil (amount /. per_slot))

(* The labeled demands summed component by component, from zero in list
   order, as a fold of [Demand.add] would: no demand list, and no record
   per step. *)
let rec sum_labeled read write cap = function
  | [] -> (cap, Rate.add read write)
  | { Demand.demand = d; _ } :: rest ->
    sum_labeled
      (Rate.add read d.Demand.read_bw)
      (Rate.add write d.Demand.write_bw)
      (Size.add cap d.Demand.capacity)
      rest

let utilization t labeled =
  let cap, bw = sum_labeled Rate.zero Rate.zero Size.zero labeled in
  let dev_cap = max_capacity t and dev_bw = max_bandwidth t in
  {
    capacity_used = cap;
    bandwidth_used = bw;
    capacity_fraction = Size.ratio cap dev_cap;
    bandwidth_fraction =
      (if Rate.is_zero dev_bw then if Rate.is_zero bw then 0. else infinity
       else Rate.ratio bw dev_bw);
    capacity_slots_needed =
      slots_for (Size.to_bytes cap) (Size.to_bytes t.slot_capacity);
    bandwidth_slots_needed =
      slots_for (Rate.to_bytes_per_sec bw) (Rate.to_bytes_per_sec t.slot_bandwidth);
  }

let overcommitted u = u.capacity_fraction > 1. || u.bandwidth_fraction > 1.

let available_bandwidth t labeled =
  let u = utilization t labeled in
  Rate.sub (max_bandwidth t) u.bandwidth_used

let provisioned_capacity t labeled =
  let u = utilization t labeled in
  Size.scale (float_of_int u.capacity_slots_needed) t.slot_capacity

let provisioned_bandwidth t labeled =
  let u = utilization t labeled in
  Rate.scale (float_of_int u.bandwidth_slots_needed) t.slot_bandwidth

let pp ppf t =
  Fmt.pf ppf "@[<v>device %s @ %a:@,  cap = %d x %a = %a@,  bw  = %a@]" t.name
    Location.pp t.location t.max_capacity_slots Size.pp t.slot_capacity Size.pp
    (max_capacity t) Rate.pp (max_bandwidth t)

let pp_utilization ppf u =
  Fmt.pf ppf "cap %.1f%% (%a), bw %.1f%% (%a)" (100. *. u.capacity_fraction)
    Size.pp u.capacity_used
    (100. *. u.bandwidth_fraction)
    Rate.pp u.bandwidth_used
