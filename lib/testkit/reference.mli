open Storage_units
open Storage_device
open Storage_protection
open Storage_model

(** A reference for {!Design}'s derived table: each derived accessor
    recomputed from scratch from the public per-level functions —
    {!Storage_protection.Demands.of_technique} per level,
    {!Storage_device.Device.utilization}, and the rule that the lowest
    level hosted on a device owns it — with one list pass per question, as
    the design computed them before its table was filled in one walk.
    Each function answers what the [Design] accessor of the same name
    answers; [Oracle.derived_mismatch] compares them bit for bit. *)

val devices : Design.t -> Device.t list
val links : Design.t -> (Interconnect.t * Technique.t) list
val demands_on : Design.t -> Device.t -> Demand.labeled list
val loaded_demands_on : Design.t -> Device.t -> Demand.labeled list
val device_utilization : Design.t -> Device.t -> Device.utilization
val demand_shares : Design.t -> Device.t -> (string * Demand.t) list
val primary_technique_of_device : Design.t -> Device.t -> string
val link_demand : Design.t -> Interconnect.t -> Rate.t
val validate : Design.t -> (unit, string list) result

val rp_interval_min : Design.t -> int -> Duration.t
(** The level's schedule's {!Storage_protection.Schedule.rp_interval_min};
    zero for level 0. (The other lag accessors' references are
    {!Storage_hierarchy.Hierarchy.worst_lag} and [guaranteed_range].) *)
