(** Memoized evaluation, keyed by canonical (design, scenario) fingerprints.

    {!Evaluate.run} is a pure function, so a cache can evaluate each
    (design, scenario) pair once and share the report, across calls and
    across the domains of a {!Storage_parallel.Pool} (the underlying
    {!Storage_parallel.Memo} is thread-safe). It pays only where the
    same pairs recur and the key is cheaper than the evaluation. Nothing
    in the program is such a caller: the optimize loops and [serve]'s
    [/evaluate] evaluate directly, because keying a freshly built or
    freshly parsed design costs about as much as evaluating it, and
    [Objective.summarize] builds no report at all. What is left is
    {!run}, for the testkit's [cache-invariance] oracle and the
    benchmark's [serve] replay, and {!of_engine} with the counters, which
    the benchmark's [sweep] replay reads.

    Keys are {!Design.fingerprint} + {!Scenario.fingerprint}: purely
    structural, so it never matters how or where a design was built. A
    cached report is the very value a fresh evaluation would produce —
    callers cannot observe the cache except as saved time. *)

type t

val create : unit -> t
(** An empty, unbounded cache. *)

val of_engine : Storage_engine.t -> t
(** The engine's session cache: unbounded, created on first use and
    stored in an engine slot, so every call on the same engine shares
    it. Nothing in the library fills it: [Objective.summarize] ignores
    its [?engine], so the counters of a cache obtained here stay at
    [0]. *)

val key : Design.t -> Scenario.t -> string
(** The cache key: both fingerprints, joined. *)

val run : t -> Design.t -> Scenario.t -> Evaluate.report
(** Memoized {!Evaluate.run}. *)

val hits : t -> int
val misses : t -> int

val evicted : t -> int
(** Always [0]: the cache never evicts. The benchmark harness
    ([perfbench/]) still reads it; it goes together with {!of_engine}. *)
