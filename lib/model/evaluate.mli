open Storage_units

(** Top-level evaluation: design + scenario -> all four output metrics.

    Composes the utilization, data-loss, recovery-time and cost sub-models
    into the paper's overall framework (§3.3). *)

type report = {
  design_name : string;
  scenario : Scenario.t;
  utilization : Utilization.report;
  data_loss : Data_loss.t;
  recovery : Recovery_time.timeline option;
      (** [None] when no recovery is needed (primary intact) or none is
          possible (total loss) *)
  recovery_time : Duration.t;
      (** zero when no recovery is needed; for a total loss this is zero
          and the loss penalty carries the damage *)
  outlays : Cost.outlays;
  penalties : Cost.penalties;
  total_cost : Money.t;  (** outlays + penalties *)
  meets_rto : bool option;  (** [None] when no RTO is specified *)
  meets_rpo : bool option;
  errors : string list;
      (** design-validation failures and unrecoverable-path errors; an
          empty list means the report is trustworthy *)
}

val run : Design.t -> Scenario.t -> report

val run_all : Design.t -> Scenario.t list -> report list
(** Convenience: evaluate the same design under several scenarios (the
    case-study tables evaluate object / array / site in one sweep). The
    scenario-independent stages are computed once and shared. *)

type prepared
(** The scenario-independent half of an evaluation: validation, normal-mode
    utilization and outlays, which depend only on the design. *)

val prepare : Design.t -> prepared
val run_prepared : prepared -> Scenario.t -> report
(** [run_prepared (prepare d) sc] is {!run}[ d sc]; preparing once and
    running many scenarios skips the recomputation {!run} would do. *)

type outcome = {
  o_data_loss : Data_loss.t;
  o_recovery : Recovery_time.timeline option;
  o_recovery_time : Duration.t;
  o_penalties : Cost.penalties;
  o_meets_rto : bool option;
  o_meets_rpo : bool option;
  o_errors : string list;
      (** unrecoverable-path errors only; design-validation errors come
          from {!Design.validate} *)
}
(** A report's per-scenario fields, under [o_] names: what one scenario
    adds to a design, without the scenario-independent utilization and
    outlays. *)

val assess : Design.t -> Scenario.t -> outcome
(** The per-scenario stages in the paper's order: data loss and the
    recovery source, recovery time, penalties, then RTO/RPO compliance.
    {!run_prepared} builds every report from it, and
    [Objective.summarize] scores with it, so both apply one set of
    compliance rules. Runs under the [evaluate.run] timer, with the
    [evaluate.stage.data_loss], [evaluate.stage.recovery_time] and
    [evaluate.stage.cost] (penalties) timers inside. *)

val pp : report Fmt.t
val pp_summary : report Fmt.t
(** One-line summary: scenario, RT, DL, penalties, total. *)
