(** Domain-safe instrumentation for the evaluation engine.

    A process-wide registry of named metrics — monotonically increasing
    counters, wall-clock timers, log-spaced histograms and polled gauges —
    that the hot paths of the framework (evaluation stages, the memo
    cache, the domain pool, the simulator, the search loops) update as
    they run. The registry snapshots to the {!Storage_report.Json} type so
    a stats dump composes with every other machine-readable output.

    Instrumentation is {b off by default} and must never change a result:
    when disabled, every recording operation is a single atomic load and a
    branch, and timers run the instrumented function untouched. Metrics
    are created at module-initialization time (handles are cheap to make
    and idempotent by name), so the set of registered names is stable
    whether or not recording is enabled.

    All operations are safe to call concurrently from multiple domains:
    counts are [Atomic] read-modify-writes, and the registry itself is
    guarded by a mutex only on the (rare) registration path. *)

val enable : unit -> unit
(** Turn recording on, process-wide. *)

val disable : unit -> unit
(** Turn recording off. Recorded values are kept until {!reset}. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Zero every counter, timer and histogram (gauges are polled, not
    stored). Registered names survive. *)

val now : unit -> float
(** The registry's time source, in seconds. By default
    [Unix.gettimeofday] — {b wall-clock} time, chosen so that spans are
    meaningful across domains without a monotonic-clock dependency. The
    caveat: wall-clock time can step (NTP adjustment, manual change)
    between the two reads of a span, so every span computed from this
    clock {e must} be clamped to [>= 0] before it is recorded — {!Timer.time}
    and the pool's queue-wait instrumentation do so. Instrumentation may
    under-report a span that straddles a step; it never records a
    negative or step-sized one. *)

val with_clock : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_clock c f] runs [f] with {!now} reading [c] instead of the
    wall clock, restoring the previous clock on the way out (also on
    exceptions). A test hook for exercising clock-step behaviour; the
    swap is atomic but not scoped per-domain, so production code should
    never run concurrently with it. *)

(** Monotonically increasing event counts. *)
module Counter : sig
  type t

  val make : string -> t
  (** [make name] registers (or retrieves) the counter called [name].
      Two [make]s of the same name share one counter. *)

  val incr : t -> unit
  val add : t -> int -> unit

  val value : t -> int
  (** Current count (readable even while disabled). *)
end

(** Accumulated wall-clock time over a named operation. *)
module Timer : sig
  type t

  val make : string -> t

  val time : t -> (unit -> 'a) -> 'a
  (** [time t f] runs [f ()], adding its duration (via {!now} — wall
      clock, see the caveat there) and one call to [t] when recording is
      enabled; when disabled it is exactly [f ()]. The duration is
      recorded even when [f] raises, and is clamped to [>= 0] so a
      wall-clock step backwards mid-span records a zero-length call, not
      a negative or enormous one. *)

  val count : t -> int
  val total_seconds : t -> float
end

(** Distributions over positive magnitudes (durations, sizes), bucketed
    into fixed log-spaced bins. *)
module Histogram : sig
  type t

  val make : string -> t
  (** [make name] registers a histogram whose first bucket holds
      observations [<= 1e-6] and whose 24 successive upper bounds grow by
      a factor of 4, with a final unbounded overflow bucket: 1
      microsecond to beyond 10^8 seconds. Same-name [make]s share one
      histogram. *)

  val observe : t -> float -> unit
  (** Record one observation (no-op while disabled). Non-finite and
      negative values land in the first bucket. *)

  val count : t -> int
  val sum : t -> float
end

val gauge : string -> (unit -> float) -> unit
(** [gauge name poll] registers a gauge whose value is [poll ()] at
    snapshot time. Re-registering a name replaces its poll function.
    [poll] must be safe to call from any domain. *)

val snapshot : unit -> Storage_report.Json.t
(** The current value of every registered metric, as one JSON object
    keyed by metric name (sorted): counters as integers, gauges as
    floats, timers as [{count, seconds, mean_seconds, per_second}], and
    histograms as [{count, sum, mean, buckets: [{le, count}, ...]}]
    (zero-count buckets omitted; the overflow bucket's [le] is [null]). *)

val pp_table : unit Fmt.t
(** A human-readable table of the same snapshot, for [--stats]. *)
