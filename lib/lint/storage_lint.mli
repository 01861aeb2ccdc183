open Storage_model

(** Static design analysis ([ssdep lint]).

    The framework's utilization, data-loss, recovery-time and cost numbers
    are only trustworthy for well-formed inputs, and well-formedness is a
    {e static} property: §3.3.1's bandwidth and overcommitment checks, the
    §3.2.1 schedule conventions, spare-pool coverage of a failure scope —
    none of them need a single evaluation. This module gathers those
    checks as a rule set with stable codes ([SSDEP-E0xx] errors,
    [SSDEP-W0xx] warnings, [SSDEP-I0xx] advisories) and structured
    {!Diagnostic.t} findings, rendered as a human table or JSON.

    The hierarchy's structural conventions (§3.2.1, and §3.2.3's
    positive backup propagation windows) are not among them: every
    front end builds hierarchies through [Hierarchy.make], which rejects
    a violation before there is a design to lint.

    Two callers: the [ssdep lint] CLI (human/CI feedback, exit codes), and
    the design-space search, which uses {!accepts} to reject statically
    invalid candidates before paying for {!Evaluate.run}
    (see {!Storage_optimize.Search.run}).

    Severity contract: a design with no [Error]-severity findings
    evaluates without [Evaluate.report.errors]; conversely anything
    {!Evaluate.run} rejects carries at least one lint error (the
    [test_lint] property suite enforces both directions over the presets
    and seeded random designs). *)

module Diagnostic = Diagnostic

val rules : (string * Diagnostic.severity * string) list
(** The rule registry: code, severity, one-line description. Stable codes,
    documented rule by rule (with paper references) in DESIGN.md. *)

val check_design : Design.t -> Diagnostic.t list
(** The scenario-independent rules: device over/near-commitment
    (E010/E011/W001/W002), per-level interconnect requirements
    (E012/E013/W003), aggregate link oversubscription (E018), workload
    parameter validity (E014/W004/W005), cost-term validity (E015), and
    the schedule advisories (I001/I002). *)

val check_scenario : Design.t -> string * Scenario.t -> Diagnostic.t list
(** The rules for one named failure scenario: unreachable scenarios
    (W006/W007) and recovery-path viability — spare coverage of the scope
    (E016) and available transfer bandwidth (E017). *)

val check :
  ?scenarios:(string * Scenario.t) list -> Design.t -> Diagnostic.t list
(** {!check_design} plus {!check_scenario} for each given scenario, sorted
    and deduplicated into the stable {!Diagnostic.compare} order. *)

val errors : Diagnostic.t list -> Diagnostic.t list
val warnings : Diagnostic.t list -> Diagnostic.t list
val infos : Diagnostic.t list -> Diagnostic.t list

val accepts : Design.t -> bool
(** No error-severity finding among the design-wide rules: the candidate
    is worth evaluating. Warnings and advisories never reject. *)

val prune : Design.t list -> Design.t list
(** The candidates satisfying {!accepts}, in order. Every rejected
    candidate increments the [lint.pruned] {!Storage_obs} counter, so
    [--stats] shows how much work the pre-filter saved. *)

val exit_code : ?deny_warnings:bool -> Diagnostic.t list -> int
(** CLI exit code: [2] with errors, [1] with warnings under
    [~deny_warnings:true], [0] otherwise. *)

val pp : Diagnostic.t list Fmt.t
(** Table of findings followed by a severity summary ("clean: ..." when
    empty). *)

val pp_summary : Diagnostic.t list Fmt.t

val to_json : design:string -> Diagnostic.t list -> Storage_report.Json.t
(** Stable machine-readable form: design name, the ordered diagnostics,
    and per-severity counts. *)
