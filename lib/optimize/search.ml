open Storage_units
open Storage_model
module Engine = Storage_engine

type result = {
  evaluated : Objective.summary list;
  feasible : Objective.summary list;
  frontier : Objective.summary list;
  best : Objective.summary option;
  considered : int;
  feasible_count : int;
}

(* Search throughput: (design, scenario) evaluations and the wall-clock of
   whole searches. The derived gauge is the north-star number: evaluations
   per second of search time. *)
let t_search = Storage_obs.Timer.make "search.run"
let obs_evaluations = Storage_obs.Counter.make "search.evaluations"

(* Shared by name with [Storage_lint.prune]'s counter: every static
   pre-filter reports into the one [lint.pruned] metric. *)
let obs_pruned = Storage_obs.Counter.make "lint.pruned"

let () =
  Storage_obs.gauge "search.evals_per_second" (fun () ->
      let s = Storage_obs.Timer.total_seconds t_search in
      if s > 0. then
        float_of_int (Storage_obs.Counter.value obs_evaluations) /. s
      else 0.)

let by_cost a b =
  Money.compare a.Objective.worst_total_cost b.Objective.worst_total_cost

(* Bounded feasible set for [~top_k]: a cost-sorted list capped at [k].
   Insertion places a newcomer after existing equal-cost entries, which is
   exactly where the final stable [List.sort] of the unbounded path would
   leave it — so truncating the unbounded sorted list to [k] gives the
   same list. *)
let insert_top_k k s feasible =
  let rec insert = function
    | [] -> [ s ]
    | x :: rest -> if by_cost x s <= 0 then x :: insert rest else s :: x :: rest
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k (insert feasible)

let run ?engine ?top_k candidates scenarios =
  if scenarios = [] then invalid_arg "Search.run: no scenarios";
  (match top_k with
  | Some k when k < 1 -> invalid_arg "Search.run: top_k must be >= 1"
  | _ -> ());
  match Seq.uncons candidates with
  | None -> invalid_arg "Search.run: no candidate designs"
  | Some (first, rest) ->
    let candidates = Seq.cons first rest in
    let owned, engine =
      match engine with
      | Some e -> (false, e)
      | None -> (true, Engine.create ())
    in
    Fun.protect
      ~finally:(fun () -> if owned then Engine.shutdown engine)
    @@ fun () ->
    Storage_obs.Timer.time t_search @@ fun () ->
    (* Static pre-filter, applied per element as the grid streams by:
       candidates carrying lint errors would only come back as infeasible
       reports full of validation errors — reject them before paying for
       [Evaluate.run] (the [lint.pruned] counter shows how many were
       saved). The surviving results are identical to a run over a
       hand-filtered candidate list. *)
    let candidates =
      if Engine.lint engine then
        Seq.filter
          (fun d ->
            Storage_lint.accepts d
            ||
            (Storage_obs.Counter.incr obs_pruned;
             false))
          candidates
      else candidates
    in
    let nscenarios = List.length scenarios in
    (* Evaluation streams through the engine's pool in bounded windows;
       the fold below is the only consumer, so the live set is one
       window of summaries plus the accumulators. *)
    let summaries =
      Engine.map_seq engine
        (fun d -> Objective.summarize d scenarios)
        candidates
    in
    let keep_all = top_k = None in
    (* In [~top_k] mode the accumulators hold slim summaries — the
       per-scenario reports dropped, an order of magnitude fewer words
       per entry. The frontier can bulge transiently (a large antichain
       within one design family, later evicted wholesale by a dominating
       family), and holding full reports through the bulge is what would
       make peak memory scale with the grid. The few survivors are
       re-summarized at the end: evaluation is pure, so the rebuilt
       reports are the very ones the fold dropped. *)
    let slim s =
      if keep_all then s
      else
        (* Dropping the design's memoized derived data matters as much as
           dropping the reports: a design that has been evaluated carries
           its placements, per-device utilizations and lag tables, several
           times its own size. The stripped copy recomputes on demand. *)
        { s with
          Objective.reports = [];
          design = Design.strip s.Objective.design }
    in
    let rehydrate s =
      if keep_all then s else Objective.summarize s.Objective.design scenarios
    in
    let evaluated_rev = ref [] in
    let feasible_acc = ref [] in
    let front = ref Pareto.empty in
    let considered = ref 0 in
    let feasible_count = ref 0 in
    Seq.iter
      (fun s ->
        incr considered;
        Storage_obs.Counter.add obs_evaluations nscenarios;
        if keep_all then evaluated_rev := s :: !evaluated_rev;
        front := Pareto.insert !front (slim s);
        if s.Objective.feasible then begin
          incr feasible_count;
          feasible_acc :=
            (match top_k with
            | None -> s :: !feasible_acc
            | Some k -> insert_top_k k (slim s) !feasible_acc)
        end)
      summaries;
    let feasible =
      match top_k with
      | None -> List.sort by_cost (List.rev !feasible_acc)
      | Some _ -> List.map rehydrate !feasible_acc
    in
    {
      evaluated = List.rev !evaluated_rev;
      feasible;
      frontier = List.map rehydrate (Pareto.contents !front);
      best = (match feasible with [] -> None | best :: _ -> Some best);
      considered = !considered;
      feasible_count = !feasible_count;
    }

(* The independent reference algorithm the streaming path is
   differential-tested against: materialize the whole grid, lint-prune it
   as a list, score serially, and build the frontier with the quadratic
   reference scan. Shares no traversal code with [run]. *)
let run_materialized candidates scenarios =
  if candidates = [] then invalid_arg "Search.run: no candidate designs";
  if scenarios = [] then invalid_arg "Search.run: no scenarios";
  let candidates = Storage_lint.prune candidates in
  Storage_obs.Counter.add obs_evaluations
    (List.length candidates * List.length scenarios);
  Storage_obs.Timer.time t_search @@ fun () ->
  let evaluated =
    List.map (fun d -> Objective.summarize d scenarios) candidates
  in
  let feasible =
    List.filter (fun s -> s.Objective.feasible) evaluated
    |> List.sort by_cost
  in
  {
    evaluated;
    feasible;
    frontier = Pareto.frontier_reference evaluated;
    best = (match feasible with [] -> None | best :: _ -> Some best);
    considered = List.length evaluated;
    feasible_count = List.length feasible;
  }

let pp ppf r =
  Fmt.pf ppf "@[<v>%d candidates, %d feasible, %d on the Pareto frontier@,%a%a@]"
    r.considered r.feasible_count
    (List.length r.frontier)
    (Fmt.list ~sep:Fmt.cut (fun ppf s -> Fmt.pf ppf "  %a" Objective.pp s))
    r.frontier
    (Fmt.option (fun ppf s ->
         Fmt.pf ppf "@,best: %a" Objective.pp s))
    r.best
