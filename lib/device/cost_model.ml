open Storage_units

type t = {
  fixed : Money.t;
  per_gib : float;
  per_mib_per_sec : float;
  per_shipment : float;
}

let make ?(fixed = Money.zero) ?(per_gib = 0.) ?(per_mib_per_sec = 0.)
    ?(per_shipment = 0.) () =
  if per_gib < 0. || per_mib_per_sec < 0. || per_shipment < 0. then
    invalid_arg "Cost_model.make: negative coefficient";
  { fixed; per_gib; per_mib_per_sec; per_shipment }

let free = make ()
let capacity_cost t size = Money.usd (t.per_gib *. Size.to_gib size)
let bandwidth_cost t rate = Money.usd (t.per_mib_per_sec *. Rate.to_mib_per_sec rate)

let outlay t ~capacity ~bandwidth ~shipments_per_year =
  if shipments_per_year < 0. then
    invalid_arg "Cost_model.outlay: negative shipment count";
  (* [Money.sum]'s additions, from zero and left to right, without its
     argument list. *)
  Money.add
    (Money.add
       (Money.add (Money.add Money.zero t.fixed) (capacity_cost t capacity))
       (bandwidth_cost t bandwidth))
    (Money.usd (t.per_shipment *. shipments_per_year))

let pp ppf t =
  Fmt.pf ppf "%a + c*%.1f + b*%.1f + s*%.1f" Money.pp t.fixed t.per_gib
    t.per_mib_per_sec t.per_shipment
