open Storage_units
open Storage_workload
open Storage_model
module Engine = Storage_engine
module Json = Storage_report.Json

type method_ = Grid | Anneal | Bnb

let method_name = function Grid -> "grid" | Anneal -> "anneal" | Bnb -> "bnb"

let method_of_string = function
  | "grid" -> Ok Grid
  | "anneal" -> Ok Anneal
  | "bnb" -> Ok Bnb
  | s -> Error (Printf.sprintf "unknown solver %S, expected grid, anneal or bnb" s)

type stats = {
  evaluations : int;
  considered : int;
  accepted : int;
  pruned_cost : int;
  pruned_infeasible : int;
  probes : int;
}

type result = {
  method_ : method_;
  grid_points : int;
  budget : int;
  seed : int64;
  best : Objective.summary option;
  stats : stats;
  pruned : Candidate.point list list;
}

let default_budget = 2048

(* Solver throughput and pruning effectiveness, alongside the search.*
   family: evaluations, grid cells cut before evaluation, bound probes
   paid to cut them. *)
let t_solver = Storage_obs.Timer.make "solver.run"
let obs_evaluations = Storage_obs.Counter.make "solver.evaluations"
let obs_accepted = Storage_obs.Counter.make "solver.moves.accepted"
let obs_pruned_cost = Storage_obs.Counter.make "solver.pruned.cost"
let obs_pruned_infeasible = Storage_obs.Counter.make "solver.pruned.infeasible"
let obs_probes = Storage_obs.Counter.make "solver.bound.probes"

let () =
  Storage_obs.gauge "solver.evals_per_second" (fun () ->
      let s = Storage_obs.Timer.total_seconds t_solver in
      if s > 0. then
        float_of_int (Storage_obs.Counter.value obs_evaluations) /. s
      else 0.)

let zero_stats =
  {
    evaluations = 0;
    considered = 0;
    accepted = 0;
    pruned_cost = 0;
    pruned_infeasible = 0;
    probes = 0;
  }

(* --- exhaustive grid (the legacy path, as a solver method) --- *)

let run_grid ~engine ~axes ~space scenarios =
  let candidates =
    Seq.filter_map (Candidate.design_of_point axes) (Candidate.points space)
  in
  match Seq.uncons candidates with
  | None -> (None, zero_stats)
  | Some _ ->
    let r = Search.run ~engine ~top_k:1 candidates scenarios in
    ( r.Search.best,
      { zero_stats with
        evaluations = r.Search.considered;
        considered = r.Search.considered } )

(* --- branch and bound --- *)

let run_bnb ~engine ~record_pruned ~axes ~space scenarios =
  let incumbent = ref None in
  let incumbent_cost = ref None in
  let evaluations = ref 0 and considered = ref 0 in
  let pruned_cost = ref 0 and pruned_infeasible = ref 0 and probes = ref 0 in
  let regions = ref [] in
  let note kind region_points =
    let n = List.length region_points in
    (match kind with
    | `Cost -> pruned_cost := !pruned_cost + n
    | `Infeasible -> pruned_infeasible := !pruned_infeasible + n);
    if record_pruned && region_points <> [] then
      regions := region_points :: !regions
  in
  let update (s : Objective.summary) =
    if s.Objective.feasible then begin
      match !incumbent_cost with
      | Some c when Money.compare s.Objective.worst_total_cost c >= 0 -> ()
      | _ ->
        incumbent := Some s;
        incumbent_cost := Some s.Objective.worst_total_cost
    end
  in
  (* Evaluate a batch of leaf cells: decode (the decoder is the lint
     pre-filter), summarize across the engine pool, fold in input order.
     Pruning decisions only ever read the incumbent between batches, so
     the result is --jobs-invariant. *)
  let eval_leaves pts =
    let decoded = List.filter_map (Candidate.design_of_point axes) pts in
    considered := !considered + List.length pts;
    let summaries =
      Engine.map engine (fun d -> Objective.summarize d scenarios) decoded
    in
    evaluations := !evaluations + List.length decoded;
    List.iter update summaries
  in
  let nk, na, nr, nb, nv = Candidate.tape_dims space in
  let nm = Candidate.mirror_count space in
  (* The mirror family first: it is tiny, its optima are strong (few
     devices, no tape robots), and an early incumbent is what gives the
     tape-family cost bound its teeth. Links are evaluated in listed
     order; when the axis is sorted ascending, outlays grow with the
     bundle, so once a link count's outlays reach the incumbent's total
     the rest of the axis is cut. *)
  let mirror_ascending =
    let rec sorted = function
      | a :: (b :: _ as rest) -> a < b && sorted rest
      | _ -> true
    in
    sorted space.Candidate.mirror_links
  in
  let rec mirrors i =
    if i < nm then begin
      incr considered;
      match Candidate.design_of_point axes (Candidate.Mirror { links = i }) with
      | None -> mirrors (i + 1)
      | Some d ->
        let s = Objective.summarize d scenarios in
        incr evaluations;
        update s;
        let cut =
          mirror_ascending
          &&
          match !incumbent_cost with
          | None -> false
          | Some c -> Money.compare s.Objective.outlays c >= 0
        in
        if cut then
          note `Cost
            (List.init (nm - i - 1) (fun j ->
                 Candidate.Mirror { links = i + 1 + j }))
        else mirrors (i + 1)
    end
  in
  mirrors 0;
  (* The tape family, branching pit-kind / pit-retention / pit-acc /
     backup-acc with vault leaves batched. Along each ascending pit-acc
     axis the lint feasibility frontier is located by geometric bisection
     when the axis is long enough to pay for it. *)
  let subtree ~pit ~pit_acc ~pit_ret =
    List.concat
      (List.init nb (fun backup ->
           List.init nv (fun vault ->
               Candidate.Tape { pit; pit_acc; pit_ret; backup; vault })))
  in
  let vault_leaves ~pit ~pit_acc ~pit_ret ~backup =
    List.init nv (fun vault ->
        Candidate.Tape { pit; pit_acc; pit_ret; backup; vault })
  in
  let backups ~pit ~pit_acc ~pit_ret =
    for backup = 0 to nb - 1 do
      let prefix =
        Candidate.tape_prefix axes ~pit ~pit_acc ~pit_ret ~backup ()
      in
      if prefix <> None then incr probes;
      match Bound.judge ~incumbent:!incumbent_cost prefix with
      | Bound.Cut_infeasible ->
        note `Infeasible (vault_leaves ~pit ~pit_acc ~pit_ret ~backup)
      | Bound.Cut_cost ->
        note `Cost (vault_leaves ~pit ~pit_acc ~pit_ret ~backup)
      | Bound.Admit -> eval_leaves (vault_leaves ~pit ~pit_acc ~pit_ret ~backup)
    done
  in
  for pit = 0 to nk - 1 do
    for pit_ret = 0 to nr - 1 do
      let admit pit_acc =
        incr probes;
        match Candidate.tape_prefix axes ~pit ~pit_acc ~pit_ret () with
        | None -> true
        | Some p -> Storage_lint.accepts p
      in
      let start =
        if na < Bound.bisection_threshold then 0
        else begin
          match Bound.frontier ~admit na with
          | Some a0 ->
            if a0 > 0 then
              List.iter
                (fun pit_acc -> note `Infeasible (subtree ~pit ~pit_acc ~pit_ret))
                (List.init a0 Fun.id);
            a0
          | None ->
            List.iter
              (fun pit_acc -> note `Infeasible (subtree ~pit ~pit_acc ~pit_ret))
              (List.init na Fun.id);
            na
        end
      in
      for pit_acc = start to na - 1 do
        let prefix = Candidate.tape_prefix axes ~pit ~pit_acc ~pit_ret () in
        if prefix <> None then incr probes;
        match Bound.judge ~incumbent:!incumbent_cost prefix with
        | Bound.Cut_infeasible -> note `Infeasible (subtree ~pit ~pit_acc ~pit_ret)
        | Bound.Cut_cost -> note `Cost (subtree ~pit ~pit_acc ~pit_ret)
        | Bound.Admit -> backups ~pit ~pit_acc ~pit_ret
      done
    done
  done;
  ( !incumbent,
    {
      evaluations = !evaluations;
      considered = !considered;
      accepted = 0;
      pruned_cost = !pruned_cost;
      pruned_infeasible = !pruned_infeasible;
      probes = !probes;
    },
    List.rev !regions )

(* --- dispatch --- *)

let run_in ~engine ?(budget = default_budget) ?(seed = Engine.default_seed)
    ?(record_pruned = false)
    ?background ~method_ kit space scenarios =
  if scenarios = [] then invalid_arg "Solver.run: no scenarios";
  if budget < 1 then invalid_arg "Solver.run: budget must be >= 1";
  let grid_points = Candidate.point_count space in
  if grid_points = 0 then invalid_arg "Solver.run: empty candidate space";
  Storage_obs.Timer.time t_solver @@ fun () ->
  let axes = Candidate.axes ?background kit space in
  let best, stats, pruned =
    match method_ with
    | Grid ->
      let best, stats = run_grid ~engine ~axes ~space scenarios in
      (best, stats, [])
    | Bnb -> run_bnb ~engine ~record_pruned ~axes ~space scenarios
    | Anneal ->
      let o = Anneal.run ~engine ~budget ~seed ~space ~axes scenarios in
      ( o.Anneal.best,
        { zero_stats with
          evaluations = o.Anneal.evaluations;
          considered = o.Anneal.proposals;
          accepted = o.Anneal.accepted },
        [] )
  in
  Storage_obs.Counter.add obs_evaluations stats.evaluations;
  Storage_obs.Counter.add obs_accepted stats.accepted;
  Storage_obs.Counter.add obs_pruned_cost stats.pruned_cost;
  Storage_obs.Counter.add obs_pruned_infeasible stats.pruned_infeasible;
  Storage_obs.Counter.add obs_probes stats.probes;
  { method_; grid_points; budget; seed; best; stats; pruned }

let run ?engine ?budget ?seed ?record_pruned ?background ~method_ kit space
    scenarios =
  let owned, engine =
    match engine with Some e -> (false, e) | None -> (true, Engine.create ())
  in
  Fun.protect
    ~finally:(fun () -> if owned then Engine.shutdown engine)
    (fun () ->
      run_in ~engine ?budget ?seed ?record_pruned ?background ~method_ kit
        space scenarios)

(* --- hierarchical portfolio roll-up --- *)

type member = {
  label : string;
  workload : Workload.t;
  business : Business.t;
}

let member_of_design (d : Design.t) =
  { label = d.Design.name; workload = d.Design.workload;
    business = d.Design.business }

type site = {
  feasible : bool;
  overcommitted : string list;
  outlays : Money.t;
  penalties : Money.t;
  total : Money.t;
  worst_recovery_time : Duration.t;
  worst_loss : Data_loss.loss;
}

type portfolio_result = {
  assignments : (string * result) list;
  chosen : Design.t list;
  site : site;
}

let kit_devices (kit : Candidate.kit) =
  let devs =
    [ kit.Candidate.primary; kit.Candidate.tape_library; kit.Candidate.vault;
      kit.Candidate.remote_array ]
  in
  (* Kits may alias a device across roles; demands are keyed by name. *)
  List.fold_left
    (fun acc (d : Storage_device.Device.t) ->
      if List.exists (fun (e : Storage_device.Device.t) ->
             String.equal e.Storage_device.Device.name d.Storage_device.Device.name)
           acc
      then acc
      else d :: acc)
    [] devs
  |> List.rev

(* The background one member's search runs under: every other member's
   chosen design, projected onto the shared devices — the same labeled
   demands [Portfolio.make] attaches, computed against tentative
   assignments instead of final ones. *)
let background_for kit chosen ~self =
  kit_devices kit
  |> List.filter_map (fun (dev : Storage_device.Device.t) ->
         let extra =
           List.concat_map
             (fun (label, (d : Design.t)) ->
               if String.equal label self then []
               else
                 Design.demands_on d dev
                 |> List.map (fun (l : Storage_device.Demand.labeled) ->
                        { l with
                          Storage_device.Demand.technique =
                            label ^ ": " ^ l.Storage_device.Demand.technique }))
             chosen
         in
         if extra = [] then None
         else Some (dev.Storage_device.Device.name, extra))

let solve_portfolio ?engine ?budget ?(seed = Engine.default_seed) ~method_
    ~kit ~space ~members scenarios =
  if members = [] then invalid_arg "Solver.solve_portfolio: no members";
  let labels = List.map (fun m -> m.label) members in
  if List.length labels <> List.length (List.sort_uniq String.compare labels)
  then invalid_arg "Solver.solve_portfolio: member labels must be distinct";
  let owned, engine =
    match engine with Some e -> (false, e) | None -> (true, Engine.create ())
  in
  Fun.protect
    ~finally:(fun () -> if owned then Engine.shutdown engine)
  @@ fun () ->
  let master = Storage_workload.Prng.create ~seed in
  let kit_for m =
    { kit with Candidate.workload = m.workload; business = m.business }
  in
  (* Gauss–Seidel over the members, two passes: each pass re-optimizes
     every member against the latest tentative assignments of the others,
     folded in as background demand on the shared devices.
     Per-(round, member) seeds come from one splitmix64 stream, so the
     whole consolidation is a pure function of (seed, budget). *)
  let assignments = ref [] (* (label, result) in member order, latest *) in
  let set label r =
    if List.mem_assoc label !assignments then
      assignments :=
        List.map
          (fun (l, old) -> if String.equal l label then (l, r) else (l, old))
          !assignments
    else assignments := !assignments @ [ (label, r) ]
  in
  let chosen () =
    List.filter_map
      (fun (label, r) ->
        match r.best with
        | None -> None
        | Some s -> Some (label, s.Objective.design))
      !assignments
  in
  for _round = 1 to 2 do
    List.iter
      (fun m ->
        let member_seed = Storage_workload.Prng.next_int64 master in
        let background = background_for kit (chosen ()) ~self:m.label in
        let background = if background = [] then None else Some background in
        let r =
          run_in ~engine ?budget ~seed:member_seed ?background ~method_
            (kit_for m) space scenarios
        in
        set m.label r)
      members
  done;
  (* Roll the per-object optima up into one site-level summary: the
     chosen designs become a [Portfolio] (shared fixed costs counted
     once, every member re-loaded with its neighbors' background), and
     each loaded member is re-summarized under the full consolidation. *)
  let chosen_designs =
    List.map
      (fun (label, (d : Design.t)) ->
        Design.make
          ~name:(label ^ ": " ^ d.Design.name)
          ~workload:d.Design.workload ~hierarchy:d.Design.hierarchy
          ~business:d.Design.business ())
      (chosen ())
  in
  let all_assigned = List.length chosen_designs = List.length members in
  let site, chosen_loaded =
    match (chosen_designs, Portfolio.make chosen_designs) with
    | [], _ | _, Error _ ->
      ( {
          feasible = false;
          overcommitted = [];
          outlays = Money.zero;
          penalties = Money.zero;
          total = Money.zero;
          worst_recovery_time = Duration.zero;
          worst_loss = Data_loss.Updates Duration.zero;
        },
        chosen_designs )
    | _, Ok p ->
      let loaded = Portfolio.members p in
      let over =
        List.map
          (fun ((d : Storage_device.Device.t), _) ->
            d.Storage_device.Device.name)
          (Portfolio.overcommitted p)
      in
      let summaries =
        Engine.map engine (fun d -> Objective.summarize d scenarios) loaded
      in
      let _, outlays = Portfolio.outlays p in
      let penalties =
        Money.sum
          (List.map (fun (s : Objective.summary) -> s.Objective.worst_penalties)
             summaries)
      in
      ( {
        feasible =
          all_assigned && over = []
          && List.for_all (fun (s : Objective.summary) -> s.Objective.feasible)
               summaries;
        overcommitted = over;
        outlays;
        penalties;
        total = Money.add outlays penalties;
        worst_recovery_time =
          List.fold_left
            (fun acc (s : Objective.summary) ->
              Duration.max acc s.Objective.worst_recovery_time)
            Duration.zero summaries;
        worst_loss =
          List.fold_left
            (fun acc (s : Objective.summary) ->
              if Data_loss.compare_loss s.Objective.worst_loss acc > 0 then
                s.Objective.worst_loss
              else acc)
            (Data_loss.Updates Duration.zero)
            summaries;
      },
        loaded )
  in
  { assignments = !assignments; chosen = chosen_loaded; site }

(* --- rendering --- *)

let pp ppf r =
  let best ppf = function
    | Some s -> Fmt.pf ppf "best: %a" Objective.pp s
    | None -> Fmt.pf ppf "no feasible design in the grid"
  in
  match r.method_ with
  | Grid ->
    Fmt.pf ppf "@[<v>solver grid: %d grid points, %d evaluated@,%a@]"
      r.grid_points r.stats.evaluations best r.best
  | Anneal ->
    Fmt.pf ppf
      "@[<v>solver anneal: %d grid points, budget %d, %d evaluated, %d moves \
       accepted@,%a@]"
      r.grid_points r.budget r.stats.evaluations r.stats.accepted best r.best
  | Bnb ->
    Fmt.pf ppf
      "@[<v>solver bnb: %d grid points, %d evaluated, %d pruned (%d by cost, \
       %d infeasible), %d bound probes@,%a@]"
      r.grid_points r.stats.evaluations
      (r.stats.pruned_cost + r.stats.pruned_infeasible)
      r.stats.pruned_cost r.stats.pruned_infeasible r.stats.probes best r.best

let summary_json (s : Objective.summary) =
  Json.Obj
    [
      ("design", Json.String s.Objective.design.Design.name);
      ("outlays_usd", Json.Float (Money.to_usd s.Objective.outlays));
      ( "worst_recovery_hours",
        Json.Float (Duration.to_hours s.Objective.worst_recovery_time) );
      ( "worst_loss",
        Json.String (Fmt.str "%a" Data_loss.pp_loss s.Objective.worst_loss) );
      ("total_usd", Json.Float (Money.to_usd s.Objective.worst_total_cost));
      ("feasible", Json.Bool s.Objective.feasible);
    ]

let to_json r =
  Json.Obj
    [
      ("solver", Json.String (method_name r.method_));
      ("grid_points", Json.Int r.grid_points);
      ("budget", Json.Int r.budget);
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.seed));
      ("evaluations", Json.Int r.stats.evaluations);
      ("considered", Json.Int r.stats.considered);
      ("moves_accepted", Json.Int r.stats.accepted);
      ("pruned_cost", Json.Int r.stats.pruned_cost);
      ("pruned_infeasible", Json.Int r.stats.pruned_infeasible);
      ("bound_probes", Json.Int r.stats.probes);
      ("feasible", Json.Bool (r.best <> None));
      ( "best",
        match r.best with None -> Json.Null | Some s -> summary_json s );
    ]

let pp_portfolio ppf pr =
  let member ppf (label, r) =
    match r.best with
    | Some s ->
      Fmt.pf ppf "  %-16s %a" label Objective.pp s
    | None -> Fmt.pf ppf "  %-16s no feasible design" label
  in
  Fmt.pf ppf
    "@[<v>portfolio of %d objects (solver %s):@,%a@,site: outlays %a, \
     penalties %a, total %a, worst RT %s, worst DL %a%s%s@]"
    (List.length pr.assignments)
    (match pr.assignments with
    | (_, r) :: _ -> method_name r.method_
    | [] -> "-")
    (Fmt.list ~sep:Fmt.cut member)
    pr.assignments Money.pp pr.site.outlays Money.pp pr.site.penalties Money.pp
    pr.site.total
    (Duration.to_string pr.site.worst_recovery_time)
    Data_loss.pp_loss pr.site.worst_loss
    (match pr.site.overcommitted with
    | [] -> ""
    | names -> ", overcommitted: " ^ String.concat ", " names)
    (if pr.site.feasible then ", feasible" else ", infeasible")

let portfolio_to_json pr =
  Json.Obj
    [
      ( "members",
        Json.List
          (List.map
             (fun (label, r) ->
               Json.Obj [ ("label", Json.String label); ("result", to_json r) ])
             pr.assignments) );
      ( "site",
        Json.Obj
          [
            ("feasible", Json.Bool pr.site.feasible);
            ( "overcommitted",
              Json.List
                (List.map (fun n -> Json.String n) pr.site.overcommitted) );
            ("outlays_usd", Json.Float (Money.to_usd pr.site.outlays));
            ("penalties_usd", Json.Float (Money.to_usd pr.site.penalties));
            ("total_usd", Json.Float (Money.to_usd pr.site.total));
            ( "worst_recovery_hours",
              Json.Float (Duration.to_hours pr.site.worst_recovery_time) );
            ( "worst_loss",
              Json.String (Fmt.str "%a" Data_loss.pp_loss pr.site.worst_loss)
            );
          ] );
    ]
