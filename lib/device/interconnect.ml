open Storage_units

type transport =
  | Network of { link_bandwidth : Rate.t; links : int }
  | Shipment

type t = {
  name : string;
  transport : transport;
  delay : Duration.t;
  cost : Cost_model.t;
  spare : Spare.t;
}

let make ~name ~transport ?(delay = Duration.zero) ?(cost = Cost_model.free)
    ?(spare = Spare.No_spare) () =
  (match transport with
  | Network { link_bandwidth; links } ->
    if links <= 0 then invalid_arg "Interconnect.make: non-positive links";
    if Rate.is_zero link_bandwidth then
      invalid_arg "Interconnect.make: zero link bandwidth"
  | Shipment -> ());
  { name; transport; delay; cost; spare }

let bandwidth t =
  match t.transport with
  | Network { link_bandwidth; links } ->
    Some (Rate.scale (float_of_int links) link_bandwidth)
  | Shipment -> None

let annual_cost t ~shipments_per_year =
  match t.transport with
  | Network { link_bandwidth; links } ->
    Cost_model.outlay t.cost ~capacity:Size.zero
      ~bandwidth:(Rate.scale (float_of_int links) link_bandwidth)
      ~shipments_per_year:0.
  | Shipment ->
    Cost_model.outlay t.cost ~capacity:Size.zero ~bandwidth:Rate.zero
      ~shipments_per_year

let pp ppf t =
  match t.transport with
  | Network { link_bandwidth; links } ->
    Fmt.pf ppf "link %s: %d x %a, delay %a" t.name links Rate.pp link_bandwidth
      Duration.pp t.delay
  | Shipment -> Fmt.pf ppf "shipment %s: delay %a" t.name Duration.pp t.delay
