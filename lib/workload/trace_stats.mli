open Storage_units

(** Workload characterization from a trace (the Table 2 pipeline).

    Computes the five model input parameters from a block-level update trace:
    average update rate, burstiness (peak over a fine-grained bucket divided
    by the mean), and the unique-update ([batchUpdR]) curve via windowed
    unique-block counting. *)

val average_update_rate : Trace.t -> Rate.t
(** Total bytes written divided by the trace duration. {!Rate.zero} for
    traces shorter than one event. *)

val burst_multiplier : ?bucket:Duration.t -> Trace.t -> float
(** Peak update rate over any [bucket]-sized interval (default one minute)
    divided by the average rate; at least 1. *)

val unique_bytes_in_window : Trace.t -> Duration.t -> stat:[ `Mean | `Max ] -> Size.t
(** Unique bytes written per window of the given length, tiling the trace
    with non-overlapping windows, aggregated by mean or max. Windows longer
    than the trace return the whole-trace unique volume. *)

val batch_update_rate : Trace.t -> Duration.t -> Rate.t
(** Mean unique bytes per window divided by the window length. *)

val batch_curve : Trace.t -> windows:Duration.t list -> Batch_curve.t
(** Samples {!batch_update_rate} at each window, monotonizing the resulting
    unique-volume sequence (sampling noise on short traces can produce tiny
    violations of volume monotonicity that {!Batch_curve.of_samples} would
    reject). *)

val to_workload :
  name:string -> windows:Duration.t list -> Trace.t -> Workload.t
(** Full Table 2 characterization. The access rate is synthesized from the
    update rate with cello's reads-per-write ratio, [0.29] (1028/799). *)
