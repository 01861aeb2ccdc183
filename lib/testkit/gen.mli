open Storage_model
open Storage_workload

(** Seeded, splitmix64-driven generators for fuzz cases.

    A case is a design plus the named failure scenarios to judge it
    under. Designs come in two kinds: {e valid by construction} (drawn
    through {!Storage_optimize.Candidate.enumerate}, so they pass
    [Design.validate]) and {e boundary-biased mutants} — the same designs
    with their workload grown by a factor chosen to straddle the lint
    feasibility frontier, so oracles see barely-valid and barely-invalid
    inputs in roughly equal measure.

    Everything is a pure function of the 64-bit seed: same seed, same
    case, on any machine. *)

type kind =
  | Valid  (** passes [Design.validate] by construction *)
  | Mutant of float
      (** workload grown by the factor; validity deliberately uncertain *)

type case = {
  index : int;  (** position in the fuzz run *)
  seed : int64;  (** the per-case seed that regenerates it *)
  kind : kind;
  design : Design.t;
  scenarios : (string * Scenario.t) list;
}

val workload : Prng.t -> Workload.t
(** A random but well-formed workload: log-uniform capacity, consistent
    access/update rates, a volume-monotone three-point batch curve. *)

val design : Prng.t -> Design.t
(** A valid design over the baseline hardware kit with a random workload
    and random policy parameters; falls back to the deterministic
    {!Seeded.pool} if the drawn workload fits no candidate. *)

val frontier_factor : Design.t -> float option
(** The workload growth factor (within [0.25, 64]) at which the design
    stops validating, by geometric bisection; [None] if it still
    validates at 64x. *)

val mutant : Prng.t -> Design.t -> Design.t * float
(** A boundary-biased scaled variant of the design and the factor used. *)

val scenarios : Prng.t -> Design.t -> (string * Scenario.t) list
(** Array-failure and site-disaster scenarios for the design's primary
    device (plus, sometimes, an aged user-error rollback). *)

val objectives : Prng.t -> Design.t -> Design.t
(** Half the time, the design with a recovery time objective, a recovery
    point objective or both (log-uniform, 1 h to 1 week and 1 h to
    6 weeks) in its business requirements, its penalty rates kept;
    otherwise the design itself. Without it no generated design would
    carry an objective (the baseline business sets none), and no oracle
    would judge RTO or RPO compliance. *)

val case : seed:int64 -> index:int -> case
(** The deterministic case for a per-case seed. The objectives are drawn
    last, so the design's structure, the mutation factor and the
    scenarios do not depend on them. *)
