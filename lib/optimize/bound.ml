open Storage_units
open Storage_model

type verdict = Admit | Cut_infeasible | Cut_cost

(* The two monotonicity assumptions the cuts rest on (both replayed
   exhaustively by the branch-and-bound soundness property suite, and
   cross-checked against exhaustive search by the
   solver-exhaustive-equivalence oracle):

   - extension monotonicity: appending a level to a hierarchy only adds
     demand on the devices already placed, so a lint-rejected prefix has
     no acceptable completion;
   - cost monotonicity: appending a level only adds cost items (its own
     device plus the extra capacity/bandwidth its copies place on the
     source), so [outlays prefix <= outlays completion], and since
     [worst_total_cost = outlays + penalties >= outlays], a prefix whose
     outlays already reach the incumbent's total cannot lead anywhere
     strictly better. *)
let judge ~incumbent prefix =
  match prefix with
  | None -> Admit (* unbuildable prefix: nothing can be concluded *)
  | Some p ->
    if not (Storage_lint.accepts p) then Cut_infeasible
    else begin
      match incumbent with
      | None -> Admit
      | Some best ->
        if Money.compare (Cost.total p) best >= 0 then Cut_cost
        else Admit
    end

let bisection_threshold = 8

let frontier ~admit n =
  if n <= 0 then None
  else if admit 0 then Some 0
  else begin
    (* Geometric probe out from the rejected origin (the same shape as
       the testkit's [Gen.frontier_factor] bisection, on axis indices
       instead of workload factors): double until an admitted index
       brackets the frontier, then binary-search the boundary. *)
    let rec expand lo hi =
      if hi >= n - 1 then
        if admit (n - 1) then bracket lo (n - 1) else None
      else if admit hi then bracket lo hi
      else expand hi (hi * 2)
    and bracket lo hi =
      (* invariant: not (admit lo), admit hi *)
      if hi - lo <= 1 then Some hi
      else begin
        let mid = lo + ((hi - lo) / 2) in
        if admit mid then bracket lo mid else bracket mid hi
      end
    in
    expand 0 1
  end
