(** A priority queue of timestamped events (binary min-heap).

    The simulator's core scheduling structure: O(log n) insertion and
    extraction, stable enough for discrete-event use (ties break by
    insertion order, so same-time events fire first-scheduled-first). *)

type 'a t

val create : unit -> 'a t

val copy : 'a t -> 'a t
(** An independent queue holding the same events: it pops them in the same
    order, ties included, and pushing to or popping from either queue
    leaves the other unchanged. The payloads themselves are shared. *)

val is_empty : 'a t -> bool
val length : 'a t -> int

val push : 'a t -> time:float -> 'a -> unit
(** Raises [Invalid_argument] on a non-finite time. *)

val peek_time : 'a t -> float
(** The earliest event's time; [infinity] when the queue is empty. *)

val pop : 'a t -> (float * 'a) option

type 'a batch
(** A reusable buffer of drained payloads: draining into it allocates
    nothing once it has grown to the largest batch. *)

val batch : unit -> 'a batch
val batch_length : 'a batch -> int

val batch_get : 'a batch -> int -> 'a
(** [batch_get b i] is the [i]th drained payload (0-based, in pop order).
    Raises [Invalid_argument] outside [0 .. batch_length b - 1]. *)

val drain_until : 'a t -> float -> 'a batch -> unit
(** [drain_until t bound b] empties [b], then pops every event with
    time <= [bound] into it, in order. Events pushed while the caller
    walks [b] stay queued for the next drain. *)
