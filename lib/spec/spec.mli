open Storage_model

(** Assembling designs from the textual description language.

    A design file contains one [[workload]] section, one [[business]]
    section, any number of [[device NAME]] and [[link NAME]] sections, and
    a contiguous run of [[level 0]], [[level 1]], ... sections composing
    the protection hierarchy. Optional [[scenario NAME]] sections describe
    failure scenarios to evaluate. See [examples/designs/] for complete
    files, and the key reference below.

    {v
    [workload]
    name = orders-db
    data_capacity = 500 GiB
    avg_access_rate = 4 MiB/s
    avg_update_rate = 1.5 MiB/s
    burst_multiplier = 8
    batch = 1min: 1.2 MiB/s, 12hr: 600 KiB/s, 1d: 500 KiB/s

    [device array]
    location = emea/hq/dc-1            # region/site/building
    capacity_slots = 64 x 146 GiB
    bandwidth_slots = 64 x 30 MiB/s    # optional (capacity-only if absent)
    enclosure_bandwidth = 400 MiB/s    # optional
    access_delay = 0                   # optional
    cost_fixed = $60k                  # optional, with...
    cost_per_gib = 15                  # ...per-capacity,
    cost_per_mibps = 0                 # ...per-bandwidth,
    cost_per_shipment = 0              # ...per-shipment components
    spare = dedicated 2min             # none | dedicated DUR | shared DUR FRAC
    remote_spare = shared 9hr 0.2      # optional

    [link san]
    type = network                     # network | shipment
    bandwidth = 2 x 200 MiB/s          # network only
    delay = 0
    cost_per_mibps = 0
    cost_per_shipment = 0              # shipment only

    [level 0]
    technique = primary                # primary | split_mirror | snapshot |
    device = array                     # backup | vaulting | sync_mirror |
    raid = raid1                       # async_mirror | async_batch_mirror
    [level 1]
    technique = backup
    device = tapes
    link = san
    acc = 24hr
    prop = 6hr
    hold = 1hr
    retention = 14
    incremental = cumulative acc=24hr prop=12hr hold=1hr count=5  # optional

    [business]
    outage_penalty = $20k/hr
    loss_penalty = $20k/hr
    rto = 4hr                          # optional
    rpo = 48hr                         # optional

    [scenario array-failure]
    scope = device array               # object | device N | building N |
    target_age = 0                     # site N | region N
    object_size = 1 MiB                # object scope only
    v} *)

val of_string :
  ?validate:bool ->
  string ->
  (Design.t * (string * Scenario.t) list, string) result
(** Parses a whole design text once: the design, then its named
    [[scenario]] sections (empty list when none). Errors carry
    section/line context; a design error is reported before a scenario
    error. [?validate] (default [true]) runs {!Design.validate} as the
    design's final step, so an [Ok] design is known evaluable;
    [~validate:false] stops after assembly — the loophole [ssdep lint]
    uses to report a statically invalid design's findings (with rule
    codes) instead of a load error. Scenario sections are always checked.
    Hierarchy structure is always enforced: a level list
    {!Storage_hierarchy.Hierarchy.make} rejects cannot be represented as
    a [Design.t] at all. Every front end (each [ssdep] subcommand that
    reads a file, [serve]'s [/evaluate] and [/lint], the fuzzing corpus)
    loads through this function or {!load_file}, so a text is accepted
    or rejected everywhere with the same message. *)

type load_error =
  | Unreadable of string
      (** The file could not be read at all (missing, permission denied);
          the message names the file and the OS error. A front end should
          treat this as a configuration error (`ssdep` exits 2), distinct
          from a file that reads fine but does not parse. *)
  | Invalid of string
      (** The file was read but is not a valid design: the {!of_string}
          error. *)

val load_file :
  ?validate:bool ->
  string ->
  (Design.t * (string * Scenario.t) list, load_error) result
(** {!of_string} over a file's contents, with the error split into
    {!load_error} cases for callers that map unreadable paths and invalid
    contents to different exit codes. *)

(** {2 Half-loaders}

    Each half alone, with {!of_string}'s checks for that half only. They
    remain for the benchmark's replay, which times them, and for tests. *)

val design_of_string : ?validate:bool -> string -> (Design.t, string) result
(** The design of {!of_string}, whatever the scenario sections hold. *)

val scenarios_of_string :
  string -> ((string * Scenario.t) list, string) result
(** The scenarios of {!of_string}, whatever the design sections hold. *)

val design_to_string :
  ?scenarios:(string * Scenario.t) list -> Design.t -> (string, string) result
(** The inverse of {!of_string}: renders a design (and optional
    named scenarios) in the description language, losslessly — every
    quantity is emitted in its base unit (seconds, bytes, dollars) with a
    shortest-round-trip decimal literal, so
    [design_of_string (design_to_string d)] rebuilds a design whose
    {!Design.fingerprint} matches [d]'s up to one systematic renaming: the
    parser names the workload after the design. Used by the fuzzing
    corpus ({!Storage_testkit}) to persist counterexamples as replayable
    [.ssdep] files. Errors on designs the language cannot express
    (background portfolio demands, non-full copy representations, name
    collisions between structurally distinct devices or links). *)
