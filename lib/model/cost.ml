open Storage_units
open Storage_device
open Storage_protection

type item = { technique : string; component : string; amount : Money.t }

type outlays = {
  items : item list;
  by_technique : (string * Money.t) list;
  total : Money.t;
}

(* The outlay items in list order, as a fold: [outlays] names each item
   and [total] only adds the amounts, so the two agree bit for bit by
   construction. A device contributes each technique share's fixed,
   capacity and bandwidth charges (zero charges skipped), then the same
   charges shadowed by its spare, then by its remote spare (§3.3.5:
   spares are "allocated in a similar fashion"); after every device, each
   distinct link contributes one charge, to the technique of the lowest
   level propagating over it. [part] and [shadow] say which component an
   item is, so a walk that only sums builds no name. *)
type part = Fixed | Capacity | Bandwidth
type shadow = Own | Spare | Remote_spare

(* An amount as the pass's shadow charges it: spares are priced as a
   multiple of the resources they shadow. *)
let shadowed (dev : Device.t) shadow amount =
  match shadow with
  | Own -> amount
  | Spare -> Spare.cost dev.Device.spare ~original:amount
  | Remote_spare -> Spare.cost dev.Device.remote_spare ~original:amount

(* One charge, shadowed; zero charges are skipped. Small enough to be
   inlined into [pass], so an amount is boxed only when it is handed on. *)
let charge ~device dev shadow technique part amount acc =
  if Money.is_zero amount then acc
  else
    let amount = shadowed dev shadow amount in
    if Money.is_zero amount then acc
    else device acc dev technique part shadow amount

(* One pass over a device's per-technique shares: the owner's fixed
   charge, then each share's capacity and bandwidth charges. *)
let rec pass ~device dev owner shadow acc = function
  | [] -> acc
  | (technique, demand) :: shares ->
    let cost = dev.Device.cost in
    let acc =
      if String.equal technique owner then
        charge ~device dev shadow technique Fixed cost.Cost_model.fixed acc
      else acc
    in
    let acc =
      charge ~device dev shadow technique Capacity
        (Cost_model.capacity_cost cost demand.Demand.capacity)
        acc
    in
    let acc =
      charge ~device dev shadow technique Bandwidth
        (Cost_model.bandwidth_cost cost (Demand.total_bw demand))
        acc
    in
    pass ~device dev owner shadow acc shares

(* The device's owner and shares are read from the design's derived
   table. A [No_spare] pass would only find zero charges. *)
let fold_device design ~device acc (dev : Device.t) =
  let owner = Design.primary_technique_of_device design dev in
  let shares = Design.demand_shares design dev in
  let acc = pass ~device dev owner Own acc shares in
  let acc =
    match dev.Device.spare with
    | Spare.No_spare -> acc
    | _ -> pass ~device dev owner Spare acc shares
  in
  match dev.Device.remote_spare with
  | Spare.No_spare -> acc
  | _ -> pass ~device dev owner Remote_spare acc shares

let rec fold_links ~link acc = function
  | [] -> acc
  | ((ic : Interconnect.t), technique) :: links ->
    let shipments =
      match ic.Interconnect.transport with
      | Interconnect.Network _ -> 0.
      | Interconnect.Shipment -> (
        match Technique.schedule technique with
        | Some s -> Demands.shipments_per_year s
        | None -> 0.)
    in
    let amount = Interconnect.annual_cost ic ~shipments_per_year:shipments in
    let acc =
      if Money.is_zero amount then acc
      else link acc ic (Technique.name technique) amount
    in
    fold_links ~link acc links

let fold_items design ~device ~link acc =
  let rec devices acc = function
    | [] -> acc
    | dev :: devs -> devices (fold_device design ~device acc dev) devs
  in
  fold_links ~link (devices acc (Design.devices design)) (Design.links design)

let total design =
  fold_items design Money.zero
    ~device:(fun acc _ _ _ _ amount -> Money.add acc amount)
    ~link:(fun acc _ _ amount -> Money.add acc amount)

let component (dev : Device.t) part shadow =
  let name =
    dev.Device.name
    ^ match part with
      | Fixed -> " fixed"
      | Capacity -> " capacity"
      | Bandwidth -> " bandwidth"
  in
  match shadow with
  | Own -> name
  | Spare -> name ^ " spare"
  | Remote_spare -> name ^ " remote spare"

(* Techniques in first-appearance order, amounts summed; like
   [Demand.by_technique], the handful of entries makes an in-order
   association fold the fast path. *)
let group_by_technique items =
  let rec merge acc technique amount =
    match acc with
    | [] -> [ (technique, amount) ]
    | (t, total) :: rest when String.equal t technique ->
      (t, Money.add total amount) :: rest
    | pair :: rest -> pair :: merge rest technique amount
  in
  List.fold_left
    (fun acc { technique; amount; _ } -> merge acc technique amount)
    [] items

let outlays design =
  let items =
    List.rev
      (fold_items design []
         ~device:(fun acc dev technique part shadow amount ->
           { technique; component = component dev part shadow; amount } :: acc)
         ~link:(fun acc ic technique amount ->
           { technique; component = "link " ^ ic.Interconnect.name; amount }
           :: acc))
  in
  {
    items;
    by_technique = group_by_technique items;
    total = List.fold_left (fun acc i -> Money.add acc i.amount) Money.zero items;
  }

type penalties = { outage : Money.t; loss : Money.t; total : Money.t }

let penalties (business : Business.t) ~recovery_time ~loss =
  let outage =
    Money_rate.charge business.Business.outage_penalty_rate recovery_time
  in
  let loss_duration =
    match (loss : Data_loss.loss) with
    | Data_loss.Updates d -> d
    | Data_loss.Entire_object -> business.Business.total_loss_equivalent
  in
  let loss = Money_rate.charge business.Business.loss_penalty_rate loss_duration in
  { outage; loss; total = Money.add outage loss }

let pp_outlays ppf t =
  let pp_tech ppf (name, amount) = Fmt.pf ppf "  %-20s %a" name Money.pp amount in
  Fmt.pf ppf "@[<v>outlays:@,%a@,  %-20s %a@]"
    (Fmt.list ~sep:Fmt.cut pp_tech)
    t.by_technique "total" Money.pp t.total

let pp_penalties ppf t =
  Fmt.pf ppf "penalties: outage %a + loss %a = %a" Money.pp t.outage Money.pp
    t.loss Money.pp t.total
