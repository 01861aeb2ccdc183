open Storage_units
open Storage_workload
open Storage_model

(** Solver-grade portfolio optimization over the candidate grid.

    Three interchangeable methods search the same {!Candidate} coordinate
    space for the cheapest feasible design:

    - {b grid} — exhaustive streaming evaluation (the reference; the
      legacy [ssdep optimize] path expressed as a solver method);
    - {b anneal} — seeded simulated annealing / local search
      ({!Anneal}): budgeted, jobs-invariant, monotone in budget, and
      provably exhaustive at budget >= 4 x grid;
    - {b bnb} — branch and bound over the tape/mirror families, pruning
      subtrees with the lint feasibility frontier (located by geometric
      bisection, {!Bound.frontier}) and a monotone outlays lower bound.

    All methods evaluate through one {!Storage_engine.t} (shared pool,
    [solver.*] observability counters) and fold results in
    deterministic order, so reports are byte-identical across [--jobs]
    and [--chunk]. The [solver-exhaustive-equivalence] testkit oracle
    holds all three to exhaustive search on seeded small grids. *)

type method_ = Grid | Anneal | Bnb

val method_name : method_ -> string
val method_of_string : string -> (method_, string) Stdlib.result

type stats = {
  evaluations : int;  (** [Objective.summarize] calls. *)
  considered : int;  (** Grid cells visited (invalid decodes included). *)
  accepted : int;  (** Annealing moves accepted (0 for grid/bnb). *)
  pruned_cost : int;  (** Cells cut by the outlays lower bound (bnb). *)
  pruned_infeasible : int;  (** Cells cut by the lint frontier (bnb). *)
  probes : int;  (** Prefix evaluations paid to cut them (bnb). *)
}

type result = {
  method_ : method_;
  grid_points : int;  (** {!Candidate.point_count} of the space searched. *)
  budget : int;
  seed : int64;
  best : Objective.summary option;
      (** Cheapest feasible summary found; [None] when the (searched part
          of the) grid holds no feasible design. *)
  stats : stats;
  pruned : Candidate.point list list;
      (** With [~record_pruned:true]: each pruned region as the point
          list it covered, in pruning order — replayable, which is how
          the B&B soundness property suite audits every cut. *)
}

val default_budget : int

val run :
  ?engine:Storage_engine.t ->
  ?budget:int ->
  ?seed:int64 ->
  ?record_pruned:bool ->
  ?background:(string * Storage_device.Demand.labeled list) list ->
  method_:method_ ->
  Candidate.kit ->
  Candidate.space ->
  Scenario.t list ->
  result
(** Search the grid for the cheapest feasible design. [budget] (default
    {!default_budget}) bounds annealing proposals and is recorded (but
    not binding) for grid/bnb; [seed] defaults to
    {!Storage_engine.default_seed};
    [background] prices every candidate under externally-imposed device
    load (see {!Candidate.axes}). A transient engine is created (and
    shut down) when none is passed. Raises [Invalid_argument] on an
    empty space, empty scenarios, or [budget < 1]. *)

(** {1 Hierarchical portfolio roll-up}

    Per-object optima compose upward: each portfolio member (an object
    class with its own workload and business requirements) is solved in
    the shared hardware kit, members' tentative winners load each other
    as background demand (Gauss–Seidel consolidation), and the final
    assignment rolls up through {!Storage_model.Portfolio} into one
    site-level dependability summary. *)

type member = {
  label : string;
  workload : Workload.t;
  business : Business.t;
}

val member_of_design : Design.t -> member
(** The member an existing design file describes: its name, workload and
    business requirements (the hierarchy is discarded — the solver picks
    a new one). *)

type site = {
  feasible : bool;
      (** Every member assigned a feasible design and no shared device
          overcommitted. *)
  overcommitted : string list;  (** Names of overcommitted devices. *)
  outlays : Money.t;  (** Shared fixed costs counted once. *)
  penalties : Money.t;  (** Sum of members' worst-scenario penalties. *)
  total : Money.t;
  worst_recovery_time : Duration.t;  (** Max across members. *)
  worst_loss : Data_loss.loss;  (** Max across members. *)
}

type portfolio_result = {
  assignments : (string * result) list;
      (** Final-round solver result per member label, in member order. *)
  chosen : Design.t list;
      (** The winning designs, renamed ["label: design"] and loaded with
          each other's background demands — the members of the
          {!Storage_model.Portfolio} they were rolled up through (raw,
          unloaded designs when the portfolio could not be formed). *)
  site : site;
}

val solve_portfolio :
  ?engine:Storage_engine.t ->
  ?budget:int ->
  ?seed:int64 ->
  ?rounds:int ->
  method_:method_ ->
  kit:Candidate.kit ->
  space:Candidate.space ->
  members:member list ->
  Scenario.t list ->
  portfolio_result
(** Solve every member jointly. [rounds] (default 2) Gauss–Seidel passes:
    each pass re-optimizes every member against the others' latest
    tentative designs folded in as background demand on the kit's
    devices. Per-(round, member) solver seeds derive from one splitmix64
    stream, so the whole consolidation is a pure function of
    (seed, budget, rounds) — byte-identical across [--jobs]. Raises
    [Invalid_argument] on empty members, duplicate labels, or
    [rounds < 1]. *)

(** {1 Rendering} *)

val pp : result Fmt.t
val to_json : result -> Storage_report.Json.t
val pp_portfolio : portfolio_result Fmt.t
val portfolio_to_json : portfolio_result -> Storage_report.Json.t
