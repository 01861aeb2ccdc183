open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy

(** A complete storage system design: workload + protection hierarchy +
    business requirements.

    The design maps every technique's abstract demands (§3.2.3) onto the
    concrete devices and interconnects of the hierarchy, yielding the
    labeled per-device demand sets consumed by the utilization, recovery
    and cost models. *)

type derived
(** Everything the evaluation pipeline derives from the design's structure,
    filled in one walk over the level array on first access and memoized:
    one entry per distinct device (the device, its owning technique, its
    own and loaded labeled demands, the own demands' per-technique shares
    and its utilization), one entry per distinct link (the interconnect,
    the technique it is charged to and its demand), the validation result
    and the per-level lag table. Purely an acceleration: accessors behave
    as if they recomputed from scratch on every call, bit for bit. *)

type t = private {
  name : string;
  workload : Workload.t;
  hierarchy : Hierarchy.t;
  business : Business.t;
  background : (string * Demand.labeled list) list;
      (** demands other tenants place on this design's devices (device name
          -> labeled demands); they consume capacity and bandwidth but are
          not billed to this design (see {!Portfolio}) *)
  fingerprint_memo : string option Atomic.t;
      (** internal memo backing {!fingerprint}; not a design parameter and
          excluded from the fingerprint itself *)
  derived_memo : derived option Atomic.t;
      (** internal memo backing the derived-data accessors; like
          [fingerprint_memo], not a design parameter. The whole record is
          filled in one shot, so any two designs both touched by any
          accessor carry structurally equal memo states — which keeps the
          byte-identity test suites honest when designs are marshaled. *)
}

val make :
  name:string ->
  workload:Workload.t ->
  hierarchy:Hierarchy.t ->
  business:Business.t ->
  ?background:(string * Demand.labeled list) list ->
  unit ->
  t

val strip : t -> t
(** A structurally equal copy with empty memo fields: same fingerprint,
    same behaviour, but none of the derived data retained. Long-lived
    accumulators (e.g. a streaming search's bounded frontier) hold stripped
    copies so that per-design scratch data does not pile up in the live
    set; accessors on the copy simply recompute (and re-memoize) on
    demand. *)

val primary_raid : t -> Raid.t
(** RAID organization of the primary array (from the level-0 technique). *)

val devices : t -> Device.t list
(** The distinct devices of the hierarchy, in first-appearance order
    (identity by device name). *)

val device : t -> string -> Device.t option

val links : t -> (Interconnect.t * Technique.t) list
(** The distinct interconnects of the hierarchy, in first-appearance order
    (identity by name), each with the technique of the lowest level that
    propagates over it: the technique its annual cost is charged to. *)

val demands_on : t -> Device.t -> Demand.labeled list
(** This design's own normal-mode demands landing on one device, labeled
    by technique: a level's [on_target] lands on its own device, its
    [on_source] on the previous level's device. Colocated techniques
    (split mirror, snapshot) are charged the primary array's RAID capacity
    factor; remote-mirror destinations are charged logical capacity,
    matching §3.2.3. Cost allocation uses this set.

    {b Note}: utilization, overcommit validation and recovery-bandwidth
    calculations use {!loaded_demands_on}, which also includes background
    tenants. *)

val loaded_demands_on : t -> Device.t -> Demand.labeled list
(** {!demands_on} plus any background demands registered for the device:
    the full load the hardware actually carries. *)

val device_utilization : t -> Device.t -> Device.utilization
(** [Device.utilization dev (loaded_demands_on t dev)], memoized per
    design: the normal-mode utilization the evaluation, validation and
    lint layers all need for every device. *)

val demand_shares : t -> Device.t -> (string * Demand.t) list
(** [Demand.by_technique (demands_on t dev)], memoized per design: the
    per-technique shares {!Cost} charges. *)

val link_demand : t -> Interconnect.t -> Rate.t
(** Sustained normal-mode bandwidth demand on an interconnect: the levels
    propagating over it, summed in level order. *)

val worst_lag : t -> int -> Duration.t
(** Memoized {!Storage_hierarchy.Hierarchy.worst_lag} of the design's
    hierarchy. Raises [Invalid_argument] on an out-of-range level. *)

val guaranteed_range : t -> int -> Age_range.t option
(** Memoized {!Storage_hierarchy.Hierarchy.guaranteed_range}. *)

val rp_interval_min : t -> int -> Duration.t
(** Memoized {!Storage_protection.Schedule.rp_interval_min} of the level's
    schedule; {!Duration.zero} for level 0 (the primary has no schedule). *)

val primary_technique_of_device : t -> Device.t -> string
(** Name of the technique that "owns" a device for cost allocation
    (§3.3.5): the lowest hierarchy level hosted on it. *)

val fingerprint : t -> string
(** A canonical 128-bit hex key over the design's entire structure
    (workload, hierarchy, business requirements, background load), computed
    by an allocation-light {!Storage_units.Struct_hash} walk (no Marshal
    round-trip) and memoized. Structurally equal designs always share a
    fingerprint, however they were constructed; designs differing in any
    parameter (almost surely) do not. Used with {!Scenario.fingerprint} to
    key the evaluation memo-cache ({!Eval_cache}) — and computed only when
    such a cache is actually in play: nothing on the cache-less evaluation
    path calls it. *)

val validate : t -> (unit, string list) result
(** Full design validation: hierarchy warnings are not errors, but the
    following are: any device overcommitted in capacity or bandwidth
    (§3.3.1's global check), any mirror link with less aggregate
    bandwidth than the mode requires (peak rate for synchronous mirrors),
    and any interconnect whose aggregate propagation demand across the
    levels sharing it exceeds its bandwidth.

    This is the evaluation-time shim behind {!Evaluate.run}'s [errors];
    the full static analyzer — same error conditions plus warnings,
    advisories, scenario rules, stable codes and structured locations —
    is [Storage_lint.check] (which layers above this library). *)

val pp : t Fmt.t
