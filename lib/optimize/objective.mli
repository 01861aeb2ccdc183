open Storage_units
open Storage_model

(** Scoring a design against a set of failure scenarios.

    The business-continuity planner cares about the worst case across the
    failure scenarios it must plan for; a design's score aggregates its
    per-scenario evaluations accordingly. *)

type summary = {
  design : Design.t;
  reports : Evaluate.report list;  (** one per scenario, in input order *)
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
(** Raises [Invalid_argument] on an empty scenario list. Without
    [?engine] it evaluates directly, as every optimize loop calls it.
    With an [?engine], the per-(design, scenario) evaluations go through
    the engine's session cache ({!Eval_cache.of_engine}); the summary is
    identical either way. *)

val pp : summary Fmt.t
