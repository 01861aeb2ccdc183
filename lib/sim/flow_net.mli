(** Bandwidth-shared transfer network.

    Models the devices of a storage design as capacity-constrained nodes and
    in-progress RP propagations / recovery transfers as flows between them.
    Active flows share node capacity by progressive filling (max-min
    fairness), with optional per-flow rate caps (a policy that spreads a
    backup over its propagation window caps the flow at size/propW) and a
    multiplicity per node (an intra-array copy consumes both a read and a
    write share of the same enclosure).

    The simulator drives it: add/remove flows on events, ask when the next
    flow finishes, and advance virtual time to transfer bytes at the
    current rates. Rates are recomputed lazily whenever the flow set or a
    background reservation changes. *)

type t
type node
type flow

val create : unit -> t

val add_node : t -> name:string -> capacity:float -> node
(** [capacity] in bytes/sec; [infinity] for unconstrained hops. Raises
    [Invalid_argument] on a non-positive capacity or duplicate name. *)

val set_reservation : t -> node -> float -> unit
(** Background bandwidth (e.g. foreground client I/O) subtracted from the
    node's capacity before flows share it. Clamped to the capacity. *)

val node_name : node -> string

val add_flow :
  t ->
  ?rate_cap:float ->
  through:(node * int) list ->
  bytes:float ->
  unit ->
  flow
(** A flow pushing [bytes] through each [(node, multiplicity)] it touches.
    Raises [Invalid_argument] on non-positive bytes, an empty node list or
    a non-positive multiplicity. *)

val cancel : t -> flow -> unit
(** Removes the flow without completing it (device destroyed mid-transfer).
    Idempotent. *)

val remaining : t -> flow -> float
val rate : t -> flow -> float
(** Current allocated rate (bytes/sec); 0 for finished/cancelled flows. *)

val active_count : t -> int

val node_bytes : t -> node -> float
(** Cumulative bytes pushed through the node by flows (each flow counted
    with its multiplicity), since creation. Reservations are not
    included — the caller knows the reservation rate and the elapsed
    time. *)

val next_completion : t -> float
(** Time-to-finish of the earliest-finishing active flow at current rates;
    [infinity] when no flow is active, or all active flows have zero
    rate. *)

val advance : t -> float -> flow list
(** [advance t dt] progresses every active flow by [dt] at its current rate
    and returns the flows that completed (remaining hit zero), in
    completion order. [dt] must be non-negative. *)
