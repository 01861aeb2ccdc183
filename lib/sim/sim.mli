open Storage_units
open Storage_model

(** Discrete-event simulation of a storage system design.

    The simulator executes the design's retrieval-point policies in virtual
    time: PiT captures, holds, bandwidth-limited propagations through the
    {!Flow_net} (where concurrent transfers contend for enclosure and link
    bandwidth), retention-driven eviction, failure injection, and an
    executed recovery along the same path the analytical model uses.

    Where the analytical model computes closed-form worst cases, the
    simulator measures one concrete execution, so it both validates the
    formulas (measured values must fall inside the predicted bounds) and
    explores behaviours the formulas average away (contention, phase
    effects of the failure instant).

    Two deliberate semantic differences from the analytical model:
    - the failure lands at a specific phase of the RP cycles (set by the
      warmup length), so measured data loss ranges between the best and
      worst analytical lags rather than pinning the worst case;
    - recovery is executed {e strictly} (a transfer cannot start before the
      receiving device is provisioned), so measured recovery time is an
      upper bound on the model's parallel-provisioning estimate. *)

type config = {
  warmup : Duration.t;
      (** normal operation before the failure is injected; must exceed the
          recovery source's worst lag for an RP to be present *)
  outage : (int * Duration.t) option;
      (** [(level, duration)]: suppress the technique at [level] (no new
          captures or propagations) for the last [duration] of the warmup,
          simulating a protection-technique outage that the failure then
          strikes during (validates the {!Storage_model.Degraded} model) *)
  record_events : bool;
      (** collect a human-readable event timeline in {!run}'s result (RP
          arrivals, propagation starts, the failure, recovery milestones) *)
}

val default_config : config
(** 12 weeks of warmup, no outage, no event recording. *)

type measured = {
  source_level : int option;
  data_loss : Data_loss.loss;
      (** measured: failure time minus the capture time of the restored RP *)
  recovery_time : Duration.t option;
      (** [None] when no recovery is needed (primary intact, target now) or
          none is possible *)
  rp_count : int array;  (** RPs retained per level at the failure instant *)
  rp_newest_age : Duration.t option array;
      (** age of each level's newest RP at the failure instant *)
  bandwidth_utilization : (string * float) list;
      (** measured normal-mode bandwidth utilization per device over the
          warmup (reservations plus actual transfer volume divided by
          capacity x time) — the executed counterpart of Table 5's
          bandwidth column *)
  timeline : (Duration.t * string) list;
      (** chronological event log (empty unless [record_events]) *)
}

type warm
(** A recorded warm-up: one design's normal operation from time zero,
    kept at a few instants so that runs with different warmups need not
    each simulate it again. Read-only once {!warm} returns, so runs on
    several domains may resume from one recording. *)

val warm : Design.t -> until:Duration.t -> warm
(** [warm design ~until] simulates [design]'s normal operation (no outage,
    no timeline) from time zero to [until] and keeps the simulator's state
    at no more than 64 instants: the set-up at zero, and the first tick
    boundary at or past each further 1/64 of [until], when one falls
    before [until]. Each kept state holds the clock, the event queue, the
    flow network and each level's retained RPs, so the recording's size
    is bounded by 64 times that state, however long [until] is. Raises
    [Invalid_argument] on a non-finite [until]. *)

val warm_clocks : warm -> Duration.t list
(** The virtual times of the recording's kept states, ascending: zero
    first, then each strictly before the recording's [until]. *)

val run : ?warm:warm -> ?config:config -> Design.t -> Scenario.t -> measured
(** Simulates [warmup] of normal operation, injects the scenario's failure
    (its projection: combined scope, oldest target, largest object) and
    prices the recovery at the bandwidth of the failure instant: virtual
    time stands still while each hop's transfer is timed at the rate a
    flow gets on arrival, frozen. Raises [Invalid_argument] on an [outage]
    level outside [1 .. levels - 1].

    With [?warm], the warmup resumes from the recording's last state
    strictly before [warmup] (the set-up, at zero) instead of from time
    zero. Every tick before [warmup] is one a from-scratch run takes too,
    so the result is bit for bit the from-scratch one, for any [warmup],
    including ones past the recording's [until]. Raises [Invalid_argument]
    when [config] has an [outage] (its start moves with each warmup) or
    [record_events], or when [design] is not physically the recorded
    design. *)

type injected = {
  injected_at : Duration.t;  (** absolute virtual time of the failure *)
  source_level : int option;
      (** the recovery source finally used ([Some 0]: no recovery needed;
          [None]: total loss) *)
  data_loss : Data_loss.loss;
  recovery_end : Duration.t option;
      (** absolute virtual time the recovery finished; [None] when the
          data was unrecoverable or the recovery was still running when
          the horizon closed *)
  replans : int;
      (** times a later failure forced this recovery to restart from a
          freshly chosen source *)
}

val run_events :
  ?warm:warm -> ?config:config -> ?horizon:Duration.t -> Design.t ->
  Scenario.t -> injected list
(** Executes the scenario's full event set and returns one record per
    event, in event order. It shares {!run}'s set-up, failure injection,
    source choice and hop planning; only the recovery pricing differs.
    After the warmup, each failure is injected at its [at] offset and its
    recovery runs as real flows while virtual time advances — overlapping
    recoveries contend with each other and with RP propagation through the
    same {!Flow_net}, so even a single-event scenario measures a
    live-bandwidth recovery time that differs from {!run}'s (the exact
    reduction to {!run} for single-failure inputs is made by the caller;
    see [Storage_fleet]). A later failure that destroys a device an
    in-progress recovery depends on forces a re-plan from a freshly chosen
    source; one that destroys the primary absorbs the outage (the older
    event's unavailability ends when the newer recovery does). Simulation
    stops at [warmup + horizon] (default: the last event offset plus 12
    weeks); recoveries still running then report no [recovery_end]. No
    timeline is returned. [?warm] resumes the warmup as in {!run}, with
    the same bit-identical result and the same restrictions. Raises
    [Invalid_argument] on a horizon before the last event, or an [outage]
    level out of range. *)

val sweep_failure_phase :
  ?engine:Storage_engine.t -> ?config:config -> Design.t -> Scenario.t ->
  offsets:Duration.t list -> measured list
(** Re-runs {!run} with the failure instant shifted by each offset beyond
    the warmup, exposing the phase-dependence of data loss (the analytical
    model's worst case should dominate every measured sample). The
    [?engine] runs the independent simulations on its domains; results
    are in offset order and identical to a serial (engine-less) sweep's. *)
