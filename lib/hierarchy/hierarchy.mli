open Storage_units
open Storage_device
open Storage_protection

(** The retrieval-point propagation hierarchy (§3.2).

    Level 0 is the primary copy; each higher level receives RPs from the one
    below it, over an optional interconnect, and stores them on its device.
    The module checks the paper's parameter conventions, computes each
    level's time lag relative to the primary and its guaranteed range of
    retrieval points (§3.3.2, Figure 3), and determines which levels survive
    a failure scope. *)

type level = {
  technique : Technique.t;
  device : Device.t;  (** where this level's RPs are stored *)
  link : Interconnect.t option;
      (** transport carrying RPs from the previous level (None = same
          device or direct attachment) *)
}

type t

val make : level list -> (t, string) result
(** Validates the structural conventions:
    - level 0 is a [Primary_copy], and no other level is;
    - every level above 0 has a schedule;
    - retention counts do not decrease with level
      ([retCnt_{i+1} >= retCnt_i], §3.2.1 convention 2);
    - accumulation windows do not shrink below the previous cycle period
      ([accW_{i+1} >= cyclePer_i]);
    - colocated techniques (split mirror, virtual snapshot) are hosted on
      the primary device;
    - a backup's full and incremental propagation windows are positive
      (§3.2.3 sizes its bandwidth as copy size over [propW]). *)

val make_exn : level list -> t
(** Raises [Invalid_argument] with the validation message. *)

val hold_retention_inversions : t -> int list
(** Levels [j >= 2] whose hold window exceeds level [j-1]'s retention
    window ([holdW_j > retW_{j-1}], violating §3.2.1 convention 3): extra
    retention capacity is then required at level [j-1]'s device. In
    increasing order. The case study's vaulting level does this
    deliberately, so it is an advisory, not an error — [Storage_lint]
    reports it as [SSDEP-I001]. *)

val warnings : t -> string list
(** Non-fatal advisory checks, currently {!hold_retention_inversions}
    rendered as human-readable messages. Compatibility shim: new code
    should prefer [Storage_lint.check], which carries stable rule codes
    and structured locations. *)

val length : t -> int
val level : t -> int -> level
val levels : t -> level list
val primary : t -> level

val upstream_lag : t -> int -> Duration.t
(** Sum over levels [1..j-1] of [holdW + propW] of the onward (full)
    representation: the propagation delay accumulated before level [j]'s own
    windows apply. Zero for levels 0 and 1. *)

val worst_lag : t -> int -> Duration.t
(** Worst-case staleness of level [j] relative to the primary:
    [upstream + holdW_j + max propW_j + min accW_j]. Zero for level 0. *)

val best_lag : t -> int -> Duration.t
(** Staleness just after an RP arrives: [upstream + holdW_j + propW_j].
    Zero for level 0. *)

val retention_span : t -> int -> Duration.t
(** [(retCnt_j - 1) * cyclePer_j]; zero for level 0. *)

val guaranteed_range : t -> int -> Age_range.t option
(** The range of RP ages {e guaranteed} present at level [j] (Figure 3):
    [[worst_lag ... best_lag + retention_span]]. [None] when retention is too
    shallow to guarantee anything (the interval is empty). Level 0 is
    [Some [0 ... 0]]: the current state. *)

type lag = {
  worst : Duration.t;  (** {!worst_lag} *)
  range : Age_range.t option;  (** {!guaranteed_range} *)
  rp_interval_min : Duration.t;
      (** the shortest interval between the level's RPs; zero for level 0 *)
}

val lags : t -> lag array
(** Every level's lag table, in level order, equal bit for bit to
    {!worst_lag} and {!guaranteed_range} level by level. One pass: each
    level's {!upstream_lag} is computed once, by the same fold step. *)

val surviving_levels : t -> scope:Location.scope -> int list
(** Indices of levels whose RPs remain usable under the failure scope, in
    increasing order. Hardware destruction follows device locations; a
    [Data_object] failure destroys no hardware but makes level 0 (the
    current, corrupted copy) unusable as a recovery source. *)

val pp : t Fmt.t
