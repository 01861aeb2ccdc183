(** A concurrent string-keyed memo table.

    Backs the evaluation cache: evaluations are pure, so a result can be
    computed once per key and shared — including across the domains of
    a {!Pool}.

    All operations are thread-safe (a single [Mutex] guards the table; the
    user-supplied compute function runs {e outside} the lock). When two
    domains race to fill the same key, both compute but the first insert
    wins and every caller observes that single value thereafter; for the
    pure functions this caches, the race is only a little wasted work,
    never a semantic difference. The table is unbounded: it lives as long
    as its owner. *)

type 'a t

val create : unit -> 'a t

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find_or_add t key compute] returns the cached value for [key], or runs
    [compute ()], caches it, and returns it. If [compute] raises, nothing
    is cached and the exception propagates. *)

val hits : 'a t -> int
(** Lookups answered from the table since creation. Also exported
    process-wide, summed over every table, as the [memo.hits] counter of
    {!Storage_obs}. *)

val misses : 'a t -> int
(** Lookups that had to compute ([memo.misses] process-wide). *)
