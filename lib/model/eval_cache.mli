(** Memoized evaluation, keyed by canonical (design, scenario) fingerprints.

    {!Evaluate.run} is a pure function, so a cache can evaluate each
    (design, scenario) pair once and share the report, across calls and
    across the domains of a {!Storage_parallel.Pool} (the underlying
    {!Storage_parallel.Memo} is thread-safe). It pays only where the
    same pairs recur and the key is cheaper than the evaluation — e.g. a
    service answering the same design bodies over and over. The
    library's optimize loops evaluate directly: keying a freshly built
    design costs about as much as evaluating it.

    Keys are {!Design.fingerprint} + {!Scenario.fingerprint}: purely
    structural, so it never matters how or where a design was built. A
    cached report is the very value a fresh evaluation would produce —
    callers cannot observe the cache except as saved time. *)

type t

val create : ?max_entries:int -> unit -> t
(** [max_entries] bounds the cache with FIFO eviction (see
    {!Storage_parallel.Memo.create}); the default is unbounded. *)

val of_engine : Storage_engine.t -> t
(** The engine's session cache: unbounded, created on first use and
    stored in an engine slot, so every call on the same engine shares
    it. Only the optimize layer's [Objective.summarize ~engine] consults
    it. *)

val key : Design.t -> Scenario.t -> string
(** The cache key: both fingerprints, joined. *)

val run : t -> Design.t -> Scenario.t -> Evaluate.report
(** Memoized {!Evaluate.run}. *)

val run_all : t -> Design.t -> Scenario.t list -> Evaluate.report list
(** Memoized {!Evaluate.run_all}. *)

val length : t -> int
(** Distinct (design, scenario) pairs evaluated so far. *)

val hits : t -> int
val misses : t -> int

val evicted : t -> int
(** Reports evicted by the [max_entries] bound; [0] when unbounded. *)
