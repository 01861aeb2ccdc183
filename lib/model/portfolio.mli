open Storage_units
open Storage_device

(** Multi-object storage systems: several protected workloads sharing
    hardware.

    The paper models a single data object and notes that the extension to
    multiple objects tracks each object's demands on shared devices
    (§3.1.1). A portfolio does exactly that: member designs keep their own
    workloads, hierarchies and business requirements, but devices are
    shared by name, so every member's utilization, overcommit validation
    and recovery bandwidth reflect the combined load, and shared fixed
    costs are paid once. *)

type t

val make : Design.t list -> (t, string) result
(** Builds a portfolio. Errors when the list is empty, when two members
    share a design name, or when two members refer to devices with the
    same name but different configurations (shared hardware must be the
    same hardware). Each member is rebuilt with the other members' demands
    as background load. *)

val make_exn : Design.t list -> t
val members : t -> Design.t list
(** The member designs, background-loaded; evaluating one of these with
    {!Evaluate.run} accounts for its neighbours' traffic. *)

val member : t -> string -> Design.t option

val devices : t -> Device.t list
(** All distinct devices across members. *)

val utilization : t -> (Device.t * Device.utilization) list
(** Combined utilization per device under every member's demands. *)

val overcommitted : t -> (Device.t * Device.utilization) list
(** The devices whose combined load exceeds capacity or bandwidth — the
    consolidation check that per-design validation cannot see. *)

val outlays : t -> (string * Money.t) list * Money.t
(** Annualized outlays per member and the portfolio total. Device fixed
    costs (and the matching spare premiums) are charged only to the first
    member hosted on each device; later tenants pay incremental capacity
    and bandwidth only. *)

val evaluate :
  ?engine:Storage_engine.t -> t -> Scenario.t ->
  (string * Evaluate.report) list
(** Evaluates every member under the scenario. Each member's recovery
    competes with the others' normal-mode traffic (via the background
    demands), which is the conservative reading of a shared-infrastructure
    disaster. Results are in member order whatever the engine's [jobs].

    The [?engine] supplies parallelism and the lint policy. Without an
    engine the evaluation is serial, lint on — byte-identical to the
    default engine's results.

    When the engine's lint policy is on (the default), members that fail
    {!Design.validate} (typically overcommitted by the combined
    background load) are skipped instead of evaluated into a report full
    of validation errors; each skip increments the shared [lint.pruned]
    {!Storage_obs} counter. Such members still show up in
    {!overcommitted}, which is the right place to diagnose a
    consolidation that does not fit. Pass an engine created with
    [~lint:false] to get a (failed) report for every member. *)

val pp : t Fmt.t
