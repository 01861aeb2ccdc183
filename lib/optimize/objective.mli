open Storage_units
open Storage_model

(** Scoring a design against a set of failure scenarios.

    The business-continuity planner cares about the worst case across the
    failure scenarios it must plan for; a design's score aggregates its
    per-scenario evaluations accordingly. *)

type summary = {
  design : Design.t;
  reports : Evaluate.report list;
      (** always [[]]: a leftover the benchmark's [sweep] replay still
          updates; it goes with [?engine] *)
  outlays : Money.t;  (** scenario-independent *)
  worst_recovery_time : Duration.t;
  worst_loss : Data_loss.loss;
  worst_penalties : Money.t;
  worst_total_cost : Money.t;
      (** outlays plus the worst scenario's penalties *)
  feasible : bool;
      (** no validation errors, every scenario recoverable, and every
          specified RTO/RPO met in every scenario *)
}

val summarize :
  ?engine:Storage_engine.t -> Design.t -> Scenario.t list -> summary
(** Scores a design without building a report: [outlays] is
    {!Cost.total}; the worst recovery time, loss and penalties fold each
    scenario's {!Evaluate.assess} in input order; [feasible] is
    {!Design.validate} succeeding and, in every scenario, no recovery
    error, no total loss and no unmet RTO or RPO. Every number is bit for
    bit the worst case over {!Evaluate.run_all}'s reports (the testkit's
    [summary-vs-reports] oracle). Raises [Invalid_argument] on an empty
    scenario list. [?engine] is accepted and ignored, a leftover the
    benchmark's [sweep] replay still passes. *)

val pp : summary Fmt.t
