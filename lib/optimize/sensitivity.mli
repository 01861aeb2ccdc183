open Storage_units
open Storage_model

(** One-dimensional sensitivity analysis.

    Sweeps a single design parameter (via a caller-supplied constructor)
    and records how the output metrics respond — the programmatic version
    of the paper's what-if methodology (§4.2), useful for locating
    crossover points such as "at how many links does mirroring stop being
    the cheapest design?". *)

type point = {
  value : float;  (** the swept parameter value *)
  recovery_time : Duration.t;
  loss : Data_loss.loss;
  outlays : Money.t;
  penalties : Money.t;
  total_cost : Money.t;
}

val sweep :
  ?engine:Storage_engine.t ->
  (float -> Design.t) ->
  values:float list ->
  Scenario.t ->
  point list
(** [sweep build ~values scenario] evaluates [build v] under [scenario]
    for each [v], in order. Raises [Invalid_argument] on an empty value
    list. The [?engine] supplies domains ([build] must therefore be
    pure, as the enumeration constructors are; point order and values
    are unaffected). Without an engine the sweep is serial, with
    identical points. *)

val crossover :
  ?engine:Storage_engine.t ->
  (float -> Design.t) ->
  values:float list ->
  Scenario.t ->
  metric:(point -> float) ->
  against:(float -> Design.t) ->
  float option
(** [crossover a ~values scenario ~metric ~against] is the first swept
    value at which design family [a] stops beating family [against] on
    [metric] (smaller is better), if any. *)

val pp_point : point Fmt.t
