(** Markdown dependability reports.

    Renders everything a design review needs into one document: the
    workload and protection hierarchy, normal-mode utilization, the
    outcome of each failure scenario (source, recovery time, loss,
    penalties, RTO/RPO compliance), the cost breakdown, and — when
    scenario frequencies are supplied — the expected-annual-cost and
    Monte-Carlo tail-risk figures. *)

val markdown :
  ?risk:Risk.weighted list ->
  Design.t ->
  (string * Scenario.t) list ->
  string
(** [markdown design scenarios] renders the report; [scenarios] pairs a
    display name with each scenario. When [risk] is given, a risk section
    is appended, with a Monte-Carlo distribution over 10 years. Raises
    [Invalid_argument] on an empty scenario list. *)
