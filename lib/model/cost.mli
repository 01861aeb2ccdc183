open Storage_units

(** Overall system costs: outlays and penalties (§3.3.5; Figure 5).

    Outlays are annualized and attributed per data protection technique:
    the technique that "owns" a device (the lowest hierarchy level on it)
    pays the fixed cost plus its own capacity/bandwidth share; secondary
    techniques pay only their incremental capacity/bandwidth. Spare
    resources are priced as a multiple of the resources they shadow (full
    price for dedicated spares, the discount factor for shared ones), and
    allocated the same way. Interconnects are charged to the technique
    that uses them, networks by provisioned bandwidth and couriers per
    shipment.

    Penalties convert the recovery-time and data-loss outputs into dollars
    using the business penalty rates. *)

type item = {
  technique : string;
  component : string;  (** e.g. ["disk array fixed"], ["link oc3"] *)
  amount : Money.t;
}

type outlays = private {
  items : item list;
  by_technique : (string * Money.t) list;
      (** first-appearance order, as in Figure 5's stacking *)
  total : Money.t;
}

val outlays : Design.t -> outlays

val total : Design.t -> Money.t
(** [(outlays d).total], bit for bit: both run one item walk in list order
    and add the amounts from zero. The walk reads each device's owner and
    per-technique shares and the design's distinct links from its derived
    table ({!Design.primary_technique_of_device}, {!Design.demand_shares},
    {!Design.links}), so [total] builds no item, name, per-technique
    grouping or level list: about 156 minor words per scale-3 grid design,
    four per charge it adds. *)

type penalties = private {
  outage : Money.t;
  loss : Money.t;
  total : Money.t;
}

val penalties :
  Business.t -> recovery_time:Duration.t -> loss:Data_loss.loss -> penalties
(** [Entire_object] losses are charged as
    [business.total_loss_equivalent] worth of lost updates. *)

val pp_outlays : outlays Fmt.t
val pp_penalties : penalties Fmt.t
