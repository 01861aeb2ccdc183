open Storage_model

(** Seeded simulated annealing over the candidate grid.

    A fixed crew of {!chains} interleaved chains walks {!Candidate.point}
    space: per round, every chain contributes one proposal (a neighborhood
    move — retune one frequency/retention axis, swap the protection
    technique, reassign shared-resource slots, or a restart jump), the
    round's decoded designs cross the engine pool as one batch, and
    acceptance is decided per chain from its own splitmix64 stream.

    Three structural guarantees, all property-tested:

    - {b jobs-invariance}: proposals, acceptance and the running best are
      folded in (round, chain) order, so the outcome is a pure function
      of (seed, budget) — byte-identical across [--jobs] and [--chunk];
    - {b monotone budget}: chain evolution and the temperature schedule
      depend only on the round index, so a budget-B run evaluates a
      strict prefix of a budget-B' > B run — a larger budget never
      returns a worse objective;
    - {b eventual exhaustiveness}: chain 0 sweeps the grid systematically
      from cell 0, so any budget >= chains x {!Candidate.point_count}
      provably visits every cell — the [solver-exhaustive-equivalence]
      oracle compares such a run against exhaustive search as an
      {e equality}, not a hope. *)

type outcome = {
  best : Objective.summary option;
      (** Cheapest feasible summary seen; ties keep the first in
          (round, chain) order. [None] when nothing feasible was found. *)
  proposals : int;  (** Budget consumed: grid-cell visits, revisits included. *)
  evaluations : int;  (** [Objective.summarize] calls (valid decodes only). *)
  accepted : int;  (** Accepted moves across the annealing chains. *)
}

val chains : int
(** Fixed chain count (4): chain 0 sweeps, chain 1 starts in the mirror
    family, chain 2 at the tape family's cost-greedy corner, chain 3 at a
    seeded random cell. Fixed — never derived from the budget or the
    engine — so the prefix property above holds. *)

val run :
  engine:Storage_engine.t ->
  budget:int ->
  seed:int64 ->
  space:Candidate.space ->
  axes:Candidate.axes ->
  Scenario.t list ->
  outcome
(** Raises [Invalid_argument] when [budget < 1] or the space is empty.
    Every valid proposal is evaluated, re-visited cells included. *)
