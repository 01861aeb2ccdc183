open Storage_units
open Storage_workload
open Storage_device
open Storage_model

(** Design-space enumeration for automated dependability design.

    The paper motivates its framework as "the inner-most loop of an
    automated optimization loop" [13]; this module provides the loop body's
    input: a grid of candidate designs assembled from a hardware kit and a
    policy space. Structurally invalid combinations (hierarchy convention
    violations, overcommitted devices) are filtered out. *)

(** The hardware available to build designs from. *)
type kit = {
  workload : Workload.t;
  business : Business.t;
  primary : Device.t;
  tape_library : Device.t;
  vault : Device.t;
  remote_array : Device.t;
  san : Interconnect.t;
  shipment : Interconnect.t;
  wan : int -> Interconnect.t;  (** [wan links] builds a WAN bundle *)
}

(** Which policy dimensions to sweep. *)
type space = {
  pit_techniques : [ `Split_mirror | `Snapshot ] list;
  pit_accumulations : Duration.t list;
  pit_retentions : int list;
  backup_accumulations : Duration.t list;
  backup_retention_horizon : Duration.t;
      (** backup retention counts are derived to cover this horizon *)
  vault_accumulations : Duration.t list;
  vault_retention_horizon : Duration.t;
  mirror_links : int list;
      (** asynchronous-batch mirror alternatives; empty for none *)
}

val default_space : space
(** A moderate grid (~100 designs) around the paper's case study. *)

val scaled_space : scale:int -> space
(** A grid that grows as O(scale^3) by densifying the accumulation
    dimensions of {!default_space} (retention horizons stretched so the
    extra combinations stay structurally valid). [scale <= 1] is
    {!default_space}; [scale = 7] is on the order of 10^5 candidates —
    sized for streaming search, not for materializing. *)

(** {1 The grid as a coordinate space}

    A {!point} names one combination of axis indices. The solver layer
    ({!Solver}) navigates the grid by points — neighborhood moves are
    small index perturbations — and {!enumerate} is the same decoder run
    over every point, so a solver that lands on grid cell [i] builds a
    design structurally identical to the [i]-th enumerated candidate, so
    optima are comparable across the two paths. *)

type point =
  | Tape of { pit : int; pit_acc : int; pit_ret : int; backup : int; vault : int }
      (** Indices into [pit_techniques], [pit_accumulations],
          [pit_retentions], [backup_accumulations], [vault_accumulations]. *)
  | Mirror of { links : int }  (** Index into [mirror_links]. *)

val tape_dims : space -> int * int * int * int * int
(** Axis lengths of the tape family:
    [(pit kinds, pit accs, pit retentions, backup accs, vault accs)]. *)

val tape_count : space -> int
(** Product of {!tape_dims} — the tape family's share of the grid. *)

val mirror_count : space -> int

val point_count : space -> int
(** Size of the raw coordinate cross-product (tape combinations plus
    mirror alternatives). Counts every combination, including ones whose
    decode fails hierarchy conventions — an O(1) product, unlike counting
    {!enumerate}. *)

val point_of_index : space -> int -> point
(** The [i]-th point: the tape family in row-major
    pit-kind/pit-acc/pit-ret/backup/vault order, then the mirrors. Raises
    [Invalid_argument] outside [0, point_count)]. *)

val points : space -> point Seq.t
(** All points, lazily, in {!point_of_index} order. *)

type axes
(** Per-axis level tables precomputed once per [(kit, space)] — one PiT
    level per (kind, accumulation, retention), shared by all its backup x
    vault cells — the decoder points are evaluated through. May carry
    background demands (see {!axes}) so a portfolio member's candidates
    are priced under its neighbors' load. *)

val axes :
  ?background:(string * Storage_device.Demand.labeled list) list ->
  kit ->
  space ->
  axes
(** [background] is attached to every decoded design (see
    {!Storage_model.Design.make}); default none, matching {!enumerate}. *)

val design_of_point : axes -> point -> Design.t option
(** Decode one grid cell — the only place a cell becomes a design; [None]
    when the combination is structurally invalid or lint-rejected.
    Out-of-range indices are [None], never an exception, so solver moves
    may probe freely. *)

val enumerate : kit -> space -> Design.t Seq.t
(** All structurally valid candidate designs, lazily:
    [Seq.filter_map (design_of_point (axes kit space)) (points space)] —
    the tape-based family (PiT x backup x vault policies) followed by the
    mirror family (one per link count). Design names encode their
    parameters. Each element is built (and validated) only when forced,
    so a grid of a million candidates costs no memory until — and no
    more than a window's worth while — it is consumed; the sequence is
    persistent and re-enumerates (axis tables included) on
    re-traversal. *)

val tape_prefix :
  axes -> pit:int -> pit_acc:int -> pit_ret:int -> ?backup:int -> unit ->
  Design.t option
(** The partial design shared by every completion of a tape-family
    subtree: hierarchy [primary; pit] (or [primary; pit; backup] when
    [?backup] is given) over the kit's workload. Unlike
    {!design_of_point} the result is {e not} validity-filtered — the
    branch-and-bound bound ({!Bound}) judges it. [None] only when the
    prefix itself violates hierarchy conventions. *)

