(** Reproductions of every table and figure in the paper's evaluation.

    Each function renders the corresponding artifact from the framework's
    own outputs (never from hard-coded results) and returns the text. The
    bench harness, the CLI's [tables] command and EXPERIMENTS.md are all
    generated from these. *)

val table2 : unit -> string
(** Workload characterization parameters (the cello preset). *)

val table3 : unit -> string
(** Baseline data-protection technique parameters. *)

val table4 : unit -> string
(** Baseline device configuration parameters. *)

val figure1 : unit -> string
(** The baseline storage system design: the RP propagation hierarchy with
    its devices, links and locations, as an ASCII diagram. *)

val figure2 : unit -> string
(** The retrieval-point lifecycle of each baseline level (accumulation,
    hold and propagation windows drawn to scale within one cycle). *)

val table5 : unit -> string
(** Normal-mode bandwidth and capacity utilization, baseline. *)

val table6 : unit -> string
(** Worst-case recovery time and recent data loss, baseline, for the
    object / array / site failure scenarios. *)

val table7 : unit -> string
(** Recovery time, data loss and cost for the seven what-if designs under
    array and site failures. *)

val figure3 : unit -> string
(** Guaranteed retrieval-point age ranges per hierarchy level. *)

val figure4 : unit -> string
(** Recovery-time task decomposition along the site-disaster path. *)

val figure5 : unit -> string
(** Overall cost (outlays by technique, penalties) per failure scenario. *)

val artifacts : (string * (unit -> string)) list
(** Every artifact above by name ([table2] … [figure5]), in paper order:
    the one list [all], [ssdep tables --only] and the bench harness
    read. *)

val all : unit -> string
(** Every artifact, in paper order, separated by blank lines. *)
