open Storage_protection
open Storage_hierarchy
open Storage_model

(** Greedy shrinking of counterexample designs toward a minimal
    reproduction: drop protection-hierarchy levels (deepest first), halve
    the workload, collapse burstiness and the batch curve, halve
    retention counts. Every candidate passes [Hierarchy.make] /
    [Workload.make], so shrinking never proposes a structurally malformed
    design. Fully deterministic. *)

val candidates : Design.t -> Design.t list
(** The one-step simplifications of a design, most aggressive first. *)

val minimize : keep:(Design.t -> bool) -> Design.t -> Design.t * int
(** [minimize ~keep d] greedily applies the first candidate for which
    [keep] still holds (i.e. the counterexample still fails its oracle)
    until none does or 64 simplifications were taken. Returns the shrunk
    design and the number of steps. [keep d] itself is assumed true and is
    not re-checked. *)

(** {2 Hierarchy-editing helpers}

    Shared with the metamorphic oracles, which perturb one schedule at a
    time. *)

val schedule_of : Technique.t -> Schedule.t option
val with_schedule : Technique.t -> Schedule.t -> Technique.t option

val remake_schedule :
  Schedule.t ->
  full:Schedule.windows ->
  retention_count:int ->
  Schedule.t option
(** The schedule with its full-representation windows and retention count
    replaced (secondary representation and cycle count preserved); [None]
    if the combination is invalid. *)

val rebuild :
  Design.t ->
  ?workload:Storage_workload.Workload.t ->
  Hierarchy.level list ->
  Design.t option
(** The design with its hierarchy (and optionally workload) replaced;
    [None] if [Hierarchy.make] rejects the level list. *)

val map_level :
  Design.t -> int -> (Hierarchy.level -> Hierarchy.level option) -> Design.t option
(** [map_level d i f] rebuilds [d] with level [i] replaced by [f level];
    [None] when [f] declines or the result is invalid. *)
