open Storage_units
open Storage_model
module Candidate = Storage_optimize.Candidate
module Objective = Storage_optimize.Objective
module Search = Storage_optimize.Search

type t = {
  rto : float option;
  rpo : float option;
  top_k : int option;
  grid_scale : int;
}

(* Anything that fails here would otherwise reach the [Duration]
   constructor [make] and escape as an uncaught exception. *)
let duration ~unit make s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && x >= 0. -> (
    match make x with
    | (_ : Duration.t) -> Ok x
    | exception Invalid_argument _ ->
      Error (Printf.sprintf "%S %s overflows a duration" s unit))
  | Some _ | None -> Error (Printf.sprintf "%S is not a finite number >= 0" s)

let hours = duration ~unit:"hours" Duration.hours

let problem r =
  let b = Baseline.business in
  let business =
    Business.make ~outage_penalty_rate:b.Business.outage_penalty_rate
      ~loss_penalty_rate:b.Business.loss_penalty_rate
      ?recovery_time_objective:(Option.map Duration.hours r.rto)
      ?recovery_point_objective:(Option.map Duration.hours r.rpo)
      ~total_loss_equivalent:b.Business.total_loss_equivalent ()
  in
  ( Whatif.search_kit ~business (),
    Whatif.search_space ~scale:r.grid_scale (),
    [ Baseline.scenario_array; Baseline.scenario_site ] )

let listing ~engine r =
  let kit, space, scenarios = problem r in
  let result =
    Search.run ~engine ?top_k:r.top_k (Candidate.enumerate kit space) scenarios
  in
  let top ppf k =
    Fmt.pf ppf "top %d feasible (of %d):@." (min k result.Search.feasible_count)
      result.Search.feasible_count;
    List.iteri
      (fun i s -> Fmt.pf ppf "  %2d. %a@." (i + 1) Objective.pp s)
      result.Search.feasible
  in
  Fmt.str "%a@.%a" Search.pp result (Fmt.option top) r.top_k
