open Storage_units
open Storage_model

(** Fleet-scale Monte Carlo availability and durability.

    The paper evaluates one imposed worst-case failure at a time (§3.1.3);
    this module evaluates the regime its related work cares about:
    populations of devices failing stochastically and {e concurrently}
    over an operating horizon. Each trial samples a failure trace —
    independent AFR-driven arrivals per device plus correlated
    building/site bursts — as a multi-event {!Scenario.t} and executes it:

    - an empty trace is a fully-available trial;
    - a single failure runs through the analytic-phase simulator
      ({!Sim.run}), phase-aligned to the sampled instant — the exact
      reduction the [fleet-degenerate] testkit oracle pins;
    - overlapping failures run through {!Sim.run_events}, where
      recoveries contend with each other and with RP propagation in the
      bandwidth-limited flow network.

    Trials are embarrassingly parallel: each draws its seed from one
    master splitmix64 stream up front and is dispatched through
    {!Storage_engine.map_seq} in coarse chunks, so a report is
    bit-identical for every [--jobs] value (the [fleet-jobs-invariance]
    oracle). *)

(** {1 Failure model} *)

type rates = {
  default_afr : float;
      (** annualized failure rate of every device (default 0.02) *)
  building_burst_per_year : float;
      (** rate of correlated whole-building failures, per distinct
          building in the design (default 0.005) *)
  site_burst_per_year : float;
      (** rate of correlated site disasters, per distinct site
          (default 0.002) *)
}

val rates :
  ?default_afr:float ->
  ?building_burst_per_year:float ->
  ?site_burst_per_year:float ->
  unit ->
  rates
(** Raises [Invalid_argument] on a negative or non-finite rate. *)

val default_rates : rates

type config = {
  trials : int;
  horizon : Duration.t;  (** operating period simulated per trial *)
  seed : int64;
  rates : rates;
}

val config :
  ?trials:int ->
  ?horizon_years:float ->
  ?seed:int64 ->
  ?rates:rates ->
  unit ->
  config
(** Defaults: 1000 trials, 5 years, the framework seed, {!default_rates}.
    Raises [Invalid_argument] when [trials] is outside [1 .. ]{!max_trials},
    the horizon is not positive, or a rate times the horizon in years
    exceeds {!max_expected_arrivals}. *)

val max_trials : int
(** [10^6]: the most trials one run may take. {!run} keeps every trial's
    seed and record until it aggregates (about 180 bytes a trial), and the
    slowest preset spends about 65 us a trial at the default rates, so
    this many hold under 200 MiB and run for about a minute. *)

val max_expected_arrivals : float
(** [1e4]: the most arrivals one stream (a device's failures, a
    building's or a site's bursts) may expect over the horizon. Sampling
    holds every arrival of a trial in memory, so beyond this a trial
    exhausts the heap or runs for hours. *)

val default_config : config

(** {1 Trace sampling and trial execution}

    Exposed so the testkit oracles can replay exactly what {!run} does. *)

val sample_events :
  ?rates:rates ->
  horizon:Duration.t ->
  seed:int64 ->
  Design.t ->
  Scenario.event list
(** The failure trace one trial executes: a Poisson process per device
    (rate [default_afr]) merged with one per distinct building and site
    (the correlated bursts), sorted by offset. Deterministic in [seed]. *)

val single_event_measured :
  Design.t -> Scenario.event -> Storage_sim.Sim.measured
(** The degenerate reduction used for 1-event traces: {!Sim.run} of the
    event's single-failure scenario, with a design-adaptive warmup (twice
    the deepest level's worst-case staleness, floored at a day) extended
    by the event's offset modulo the hierarchy's longest RP cycle period
    so the failure strikes at the equivalent capture phase. (Exact
    whenever every level's cycle period divides the longest one, as in
    all the presets.) It simulates the warmup from time zero: the
    reference {!run}'s resumed runs reproduce bit for bit. *)

type trial = {
  index : int;
  failures : int;  (** sampled failure events *)
  outage : Duration.t;  (** union of unavailability windows, clamped to the horizon *)
  losses : int;  (** events whose data was unrecoverable *)
  bytes_lost : Size.t;
      (** unique updates lost across events (entire object when
          unrecoverable), via the workload's batch curve *)
  rebuilds : Duration.t list;  (** completed recovery durations *)
}

val run_trial :
  ?rates:rates ->
  horizon:Duration.t ->
  seed:int64 ->
  index:int ->
  Design.t ->
  trial
(** Multi-event traces are decomposed into clusters of events separated
    by at least four weeks; each cluster executes independently
    (singletons through {!single_event_measured}, overlaps through
    {!Sim.run_events} re-based near the origin on a whole number of
    phase cycles), so a trial's cost scales with its failures rather
    than with the horizon. A recovery outliving its cluster window or an
    unrecoverable event falls the trial back to one full-horizon
    {!Sim.run_events} execution. Every simulator run starts from time
    zero: this is the reference for {!run}'s trials, which return the
    same record. *)

(** {1 Monte Carlo} *)

type report = {
  design : string;
  trials : int;
  horizon : Duration.t;
  seed : int64;
  failures : int;  (** failure events sampled across all trials *)
  failed_trials : int;  (** trials with at least one failure *)
  multi_event_trials : int;  (** trials executed by {!Sim.run_events} *)
  availability : float;  (** mean fraction of the horizon available *)
  availability_nines : float;
      (** [-log10 (1 - availability)]; infinite when no outage at all was
          observed (rendered as [null] in JSON) *)
  loss_trials : int;  (** trials that lost data unrecoverably *)
  durability : float;  (** fraction of trials with no unrecoverable loss *)
  durability_nines : float;
  mean_outage : Duration.t;  (** per trial *)
  expected_loss : Size.t;  (** mean bytes lost per trial *)
  rebuilds : int;
  rebuild_p50 : Duration.t option;  (** [None] when no rebuild completed *)
  rebuild_p95 : Duration.t option;
  rebuild_p99 : Duration.t option;
  rebuild_max : Duration.t option;
}

val run : ?engine:Storage_engine.t -> ?config:config -> Design.t -> report
(** [run design] executes [config.trials] independent trials on the
    engine's domains and aggregates them in trial order, so for a fixed
    seed the report — and its JSON rendering — is byte-identical across
    runs and across [jobs] values. It records the design's failure-free
    warm-up once per call ({!Storage_sim.Sim.warm}, up to the adaptive
    warmup plus one longest cycle) and every simulator run of every
    trial resumes from it, so each trial equals {!run_trial}'s bit for
    bit while simulating only what follows its last kept state. *)

(** {1 Rendering} *)

val to_json : report -> Storage_report.Json.t
val pp : report Fmt.t
