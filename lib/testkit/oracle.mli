open Storage_model

(** The oracle registry: differential and metamorphic checks run against
    every fuzz case. Each oracle compares two ways of computing the same
    answer (analytic vs simulated, streaming vs materialized, cached vs
    direct, scored vs reported, serial vs parallel) or asserts a
    monotonicity law the paper's model implies. Tolerances and their
    rationale live in TESTING.md. *)

type verdict =
  | Pass
  | Fail of string  (** the counterexample message, stable across runs *)
  | Skip of string  (** the case is outside the oracle's precondition *)

type ctx = {
  engine : Storage_engine.t;
      (** the engine the fuzz session runs evaluations under *)
  aux : Storage_engine.t;
      (** a multi-domain engine, for parallel-invariance comparisons *)
}

type t = {
  name : string;  (** unique, kebab-case; the CLI [--oracle] key *)
  doc : string;
  check : ctx -> Design.t -> (string * Scenario.t) list -> verdict;
}

val defaults : t list
(** The production registry, cheapest first: [lint-coincidence],
    [cache-invariance], [summary-vs-reports], [stream-vs-materialized],
    [parallel-invariance],
    [monotone-shorter-window], [monotone-bandwidth], [monotone-cost],
    [analytic-vs-sim], [fleet-degenerate], [sim-warm-resume],
    [fleet-jobs-invariance], [solver-exhaustive-equivalence]. *)

val all : t list
(** {!defaults} plus [self-test-fail], which fails on every case and
    exists only to exercise the shrink/corpus/replay pipeline. *)

val reference_summary :
  Design.t -> Scenario.t list -> Storage_optimize.Objective.summary
(** The reference score: every scenario evaluated into a full
    {!Evaluate.report} ({!Evaluate.run_all}) and the worst case folded
    over the reports, as [Objective.summarize] computed it before it
    scored without reports. [reports] holds the reports. Raises
    [Invalid_argument] on an empty scenario list. *)

val score_mismatch : Design.t -> Scenario.t list -> string option
(** [None] when {!Storage_optimize.Objective.summarize}'s six numbers (outlays, worst
    recovery time, worst loss, worst penalties, worst total cost,
    feasibility) equal {!reference_summary}'s bit for bit and
    {!Cost.total} equals [(Cost.outlays d).total] bit for bit; otherwise
    the first difference. The [summary-vs-reports] oracle. *)

val find : string -> t option
(** Look a name up in {!all}. *)

val find_in : t list -> string -> t option
