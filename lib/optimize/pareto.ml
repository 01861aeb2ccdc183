open Storage_units
open Storage_model

(* Outlays first, and no further comparison once one objective rules
   domination out: most insertions during a search are of dominated
   candidates, tested against every survivor. *)
let dominates (a : Objective.summary) (b : Objective.summary) =
  let cost = Money.compare a.Objective.outlays b.Objective.outlays in
  cost <= 0
  &&
  let rt =
    Duration.compare a.Objective.worst_recovery_time
      b.Objective.worst_recovery_time
  in
  rt <= 0
  &&
  let dl = Data_loss.compare_loss a.Objective.worst_loss b.Objective.worst_loss in
  dl <= 0 && (cost < 0 || rt < 0 || dl < 0)

let same_score (a : Objective.summary) (b : Objective.summary) =
  Money.compare a.Objective.outlays b.Objective.outlays = 0
  && Duration.compare a.Objective.worst_recovery_time
       b.Objective.worst_recovery_time
     = 0
  && Data_loss.compare_loss a.Objective.worst_loss b.Objective.worst_loss = 0

(* Total order over equal-score survivors: design name, then the design's
   structural fingerprint (so two structurally distinct candidates that
   happen to share a name and a score still order the same way regardless
   of arrival order). *)
let tie_break (a : Objective.summary) (b : Objective.summary) =
  let c =
    String.compare a.Objective.design.Design.name b.Objective.design.Design.name
  in
  if c <> 0 then c
  else
    String.compare
      (Design.fingerprint a.Objective.design)
      (Design.fingerprint b.Objective.design)

(* Incremental frontier: the survivors so far. [insert] drops the newcomer
   if any survivor dominates it, otherwise evicts the survivors it
   dominates and splices it in. Because [dominates] reads only the score
   triple (outlays, worst RT, worst DL) and is a strict partial order
   (irreflexive: equal points never dominate each other), domination
   admits or evicts whole equal-score classes at once — so each class
   stays a contiguous run, anchored where its first survivor arrived and
   internally ordered by [tie_break] (equal keys keep arrival order).
   That pinned internal order is what makes the frontier independent of
   how equal-score, structurally-distinct candidates were interleaved in
   the input; classes themselves (and singletons) remain in input order.
   An element dominated by the newcomer cannot itself dominate a later
   input that the newcomer would not also dominate — so insertion-time
   eviction loses nothing, and folding [insert] over the input yields
   exactly the same list as the quadratic [frontier_reference] filter.
   Each insertion is O(front); the whole fold is O(n x front) instead of
   O(n^2), and streaming search never holds more than the frontier
   itself. *)
type front = Objective.summary list

let empty = []

let insert front s =
  if List.exists (fun survivor -> dominates survivor s) front then front
  else begin
    let front =
      List.filter (fun survivor -> not (dominates s survivor)) front
    in
    (* Walk to [s]'s equal-score class (if present) and place [s] inside
       it in [tie_break] order; a newcomer with no class appends at the
       end, founding a new class there. *)
    let rec splice = function
      | [] -> [ s ]
      | x :: rest when same_score x s ->
        if tie_break s x < 0 then s :: x :: rest else x :: splice_group rest
      | x :: rest -> x :: splice rest
    and splice_group = function
      | [] -> [ s ]
      | x :: rest when same_score x s ->
        if tie_break s x < 0 then s :: x :: rest else x :: splice_group rest
      | rest -> s :: rest (* end of the class: stay contiguous *)
    in
    splice front
  end

let contents front = front
let frontier summaries = List.fold_left insert empty summaries

let frontier_reference summaries =
  let non_dominated =
    List.filter
      (fun s -> not (List.exists (fun other -> dominates other s) summaries))
      summaries
  in
  (* Regroup each equal-score class at its first occurrence, internally
     stable-sorted by [tie_break] — the specification [insert] maintains
     incrementally. *)
  let rec regroup seen = function
    | [] -> []
    | x :: rest ->
      if List.exists (same_score x) seen then regroup seen rest
      else
        List.stable_sort tie_break (List.filter (same_score x) non_dominated)
        @ regroup (x :: seen) rest
  in
  regroup [] non_dominated
