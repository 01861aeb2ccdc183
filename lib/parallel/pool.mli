(** A fixed-size OCaml 5 domain pool with a shared work queue.

    The evaluation hot paths of the framework — design-space search, the
    solvers, fleet Monte Carlo, failure-phase sweeps — are embarrassingly
    parallel: every (design, scenario) evaluation is a pure
    function of its inputs. This module runs such workloads across
    [Domain]s coordinated by a [Mutex]/[Condition] work queue, using only
    the standard library.

    Guarantees:
    - {b Deterministic results}: [map_on] returns results in input order,
      and each result is produced by applying [f] to the corresponding
      input exactly as the serial [List.map f] would (workers write into
      disjoint slots of a pre-sized result array).
    - {b Chunked scheduling}: inputs are dealt to workers in contiguous
      chunks so that short tasks do not drown in queue traffic; the chunk
      size adapts to the input length, or can be forced with
      [map_seq ?chunk].
    - {b First-exception propagation}: if [f] raises, the batch is
      cancelled (chunks not yet started are skipped), the pool is drained,
      and the exception of the {e smallest} input index among those
      evaluated is re-raised with its backtrace in the calling domain.

    The submitting domain participates in every batch, so a pool of [jobs]
    computes on [jobs] domains in total ([jobs - 1] spawned workers plus
    the caller). *)

type t
(** A pool of worker domains. A pool may be reused for many [map_on]
    batches (amortizing domain spawn cost) and must be [shutdown] when no
    longer needed. Submitting from several domains at once is supported;
    shutting down while a batch is in flight is not. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. Raises
    [Invalid_argument] when [jobs < 1], and when the runtime cannot run
    that many domains (OCaml 5.1 runs at most 128, the caller's included);
    the workers already spawned are joined first. *)

val shutdown : t -> unit
(** Drains the queue, stops the workers and joins their domains.
    Idempotent. *)

val map_on : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map_on pool f xs] is [List.map f xs], computed on the pool's domains
    in chunks of the input length divided by four times the pool size (at
    least 1). Re-raises the first exception of [f] as described above.
    Lists of length [<= 1] are mapped inline in the calling domain. *)

val map_seq : ?chunk:int -> t -> ('a -> 'b) -> 'a Seq.t -> 'b Seq.t
(** [map_seq pool f xs] is [Seq.map f xs] computed on the pool's domains:
    the input is consumed in windows of [512 * jobs] elements, each
    window is dispatched as one batch of contiguous [?chunk]-element
    tasks (default [min (window / (2 * jobs)) (len / jobs)] for a
    [len]-element batch: chunks of hundreds of evaluations on full
    windows, finer on a short tail so no domain idles), and the results
    are yielded in input order before the next window is read. Peak live
    memory is O(window) however long [xs] is, so a million-element grid
    streams through a constant-size working set.
    Coarse chunks are what make fine-grained workloads scale: one queue
    task per element would spend more time under the queue mutex than in
    [f] when [f] runs in microseconds.

    Forcing the first element of a window runs the whole window; an
    exception raised by [f] propagates when its window is forced (the
    smallest input index within the window wins, as in [map_on]), after
    all earlier windows' results have been yielded. The returned sequence
    re-maps on re-traversal, so it is persistent iff [xs] is persistent
    and [f] is pure (every [f] this library is used with is pure).
    Raises [Invalid_argument] when [chunk < 1]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible [~jobs] for this
    machine. *)
