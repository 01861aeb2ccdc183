open Storage_units
open Storage_model

(** One design-space search request, shared by [ssdep optimize] and the
    daemon's [/optimize]: both front ends parse their input into a {!t}
    and print {!listing}, so their answers are byte-identical by
    construction. *)

type t = {
  rto : float option;  (** recovery time objective, hours *)
  rpo : float option;  (** recovery point objective, hours *)
  top_k : int option;  (** keep only the K cheapest feasible designs *)
  grid_scale : int;  (** {!Whatif.search_space} scale *)
}

val duration :
  unit:string -> (float -> Duration.t) -> string -> (float, string) result
(** [duration ~unit make s] reads a count of [unit]s ("hours", "days",
    ...): a finite number [x >= 0] for which [make x] is a finite
    duration. The error message quotes [s]; the caller names the
    parameter. *)

val hours : string -> (float, string) result
(** The objective parser: [duration ~unit:"hours" Duration.hours]. *)

val problem :
  t ->
  Storage_optimize.Candidate.kit
  * Storage_optimize.Candidate.space
  * Scenario.t list
(** The request's search: {!Whatif.search_kit} under the baseline's
    $50,000/hr penalties plus the request's objectives,
    {!Whatif.search_space} at [grid_scale], and the array and site
    failure scenarios. *)

val listing : engine:Storage_optimize.Engine.t -> t -> string
(** Runs the exhaustive search ({!Storage_optimize.Search.run} with
    [top_k]) and renders it: the {!Storage_optimize.Search.pp} summary,
    then [top K feasible (of N):] and the ranking when [top_k] is set.
    Raises [Invalid_argument] when [top_k < 1]. *)
