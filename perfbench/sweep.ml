(* The sweep workload: what `ssdep optimize --grid-scale 3 --top-k 10` does,
   once per op, on a fresh serial CLI engine. *)

open Storage_units
open Storage_model
module Search = Storage_optimize.Search
module Candidate = Storage_optimize.Candidate
module Objective = Storage_optimize.Objective
module Pareto = Storage_optimize.Pareto
module Whatif = Storage_presets.Whatif
module Baseline = Storage_presets.Baseline
module Prng = Storage_workload.Prng

let top_k = 10

(* The (RTO, RPO) objectives, in hours, that the seed picks from. *)
let menu =
  [|
    (None, None);
    (Some 4., None);
    (Some 12., Some 24.);
    (Some 24., Some 24.);
    (Some 48., Some 12.);
    (Some 72., Some 168.);
    (None, Some 1.);
    (Some 2., Some 2.);
  |]

let scenarios = [ Baseline.scenario_array; Baseline.scenario_site ]
let scale ~tiny = if tiny then 1 else 3

(* The kit the CLI builds from --rto/--rpo. *)
let kit (rto, rpo) =
  let business =
    Business.make
      ~outage_penalty_rate:(Money_rate.usd_per_hour 50_000.)
      ~loss_penalty_rate:(Money_rate.usd_per_hour 50_000.)
      ?recovery_time_objective:(Option.map Duration.hours rto)
      ?recovery_point_objective:(Option.map Duration.hours rpo)
      ()
  in
  Whatif.search_kit ~business ()

(* --- answers --- *)

(* The parts of a search result a planner acts on, as one line. *)
let answer (r : Search.result) =
  let usd m = Printf.sprintf "%.17g" (Money.to_usd m) in
  let named (s : Objective.summary) =
    s.Objective.design.Design.name ^ "=" ^ usd s.Objective.worst_total_cost
  in
  String.concat " "
    [
      Printf.sprintf "considered=%d" r.Search.considered;
      Printf.sprintf "feasible=%d" r.Search.feasible_count;
      "best="
      ^ (match r.Search.best with Some s -> named s | None -> "-");
      "frontier="
      ^ String.concat ","
          (List.map
             (fun (s : Objective.summary) -> s.Objective.design.Design.name)
             r.Search.frontier);
      "top=" ^ String.concat "," (List.map named r.Search.feasible);
    ]

let expected_file ~data ~tiny =
  Filename.concat data
    (Printf.sprintf "sweep-scale%d.txt" (scale ~tiny))

(* One line per menu entry: "<index> <answer>". *)
let load_expected path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         let i = String.index l ' ' in
         ( int_of_string (String.sub l 0 i),
           String.sub l (i + 1) (String.length l - i - 1) ))

(* [expect]: compute every objective's answer and cross-check it against
   the materialized reference loop (whole-list lint pruning, serial
   scoring, quadratic frontier), which shares no traversal code with the
   streaming search. *)
let expect ~tiny =
  let space = Whatif.search_space ~scale:(scale ~tiny) () in
  Array.to_list
    (Array.mapi
       (fun i objective ->
         let kit = kit objective in
         let r =
           Bench.with_engine (fun engine ->
               Search.run ~engine ~top_k (Candidate.enumerate kit space)
                 scenarios)
         in
         let reference =
           Search.run_materialized
             (List.of_seq (Candidate.enumerate kit space))
             scenarios
         in
         let head =
           List.filteri (fun j _ -> j < top_k) reference.Search.feasible
         in
         let reference = { reference with Search.feasible = head } in
         if answer reference <> answer r then
           failwith
             (Printf.sprintf "objective %d: streaming %s <> materialized %s" i
                (answer r) (answer reference));
         Printf.sprintf "%d %s" i (answer r))
       menu)

(* --- the op --- *)

type input = { objective : int; kit : Candidate.kit; space : Candidate.space }

let search input =
  Bench.with_engine (fun engine ->
      Search.run ~engine ~top_k
        (Candidate.enumerate input.kit input.space)
        scenarios)

(* --- the traced replay --- *)

let timer = Storage_obs.Timer.make
let t_run = timer "evaluate.run"
let t_utilization = timer "evaluate.stage.utilization"
let t_cost = timer "evaluate.stage.cost"
let t_data_loss = timer "evaluate.stage.data_loss"
let t_recovery = timer "evaluate.stage.recovery_time"
let stage_timers = [ t_run; t_utilization; t_cost; t_data_loss; t_recovery ]

(* [Objective.summarize ~engine] as one "model.cache" span, with the
   evaluation it ran (read off the evaluate timers) as derived children:
   the four stages, and "model.evaluate" for the rest of evaluate.run. *)
let summarize sp engine design =
  Spans.span sp "model.cache" (fun () ->
      let before = List.map Storage_obs.Timer.total_seconds stage_timers in
      let s = Objective.summarize ~engine design scenarios in
      match
        List.map2
          (fun t b -> Storage_obs.Timer.total_seconds t -. b)
          stage_timers before
      with
      | [ run; utilization; cost; data_loss; recovery ] ->
        Spans.derived sp
          [
            ("model.evaluate", run -. data_loss -. recovery);
            ("model.stage.utilization", utilization);
            ("model.stage.cost", cost);
            ("model.stage.data_loss", data_loss);
            ("model.stage.recovery_time", recovery);
          ];
        s
      | _ -> assert false)

(* The cost-sorted top-k insertion [Search.run] folds with: a newcomer goes
   after existing equal-cost entries. *)
let insert_top_k s feasible =
  let by_cost a b =
    Money.compare a.Objective.worst_total_cost b.Objective.worst_total_cost
  in
  let rec insert = function
    | [] -> [ s ]
    | x :: rest -> if by_cost x s <= 0 then x :: insert rest else s :: x :: rest
  in
  List.filteri (fun i _ -> i < top_k) (insert feasible)

type counts = {
  mutable enumerated : int;
  mutable accepted : int;
  mutable hits : int;
  mutable misses : int;
  mutable evicted : int;
  mutable frontier : int;
  mutable feasible : int;
}

(* [Search.run ~top_k] one layer at a time: enumerate -> lint -> key ->
   summarize (cache, evaluate) -> Pareto insert -> top-k, then the
   re-summarized survivors. Same engine kind, same order of cache keys, so
   the same result. *)
let replay sp counts input =
  Bench.with_engine @@ fun engine ->
  let slim s =
    { s with Objective.reports = []; design = Design.strip s.Objective.design }
  in
  let front = ref Pareto.empty in
  let top = ref [] in
  let considered = ref 0 in
  let feasible = ref 0 in
  let rec loop seq =
    match Spans.span sp "optimize.enumerate" (fun () -> Seq.uncons seq) with
    | None -> ()
    | Some (d, rest) ->
      counts.enumerated <- counts.enumerated + 1;
      if Spans.span sp "lint.accepts" (fun () -> Storage_lint.accepts d) then begin
        counts.accepted <- counts.accepted + 1;
        Spans.span sp "model.fingerprint" (fun () ->
            List.iter (fun sc -> ignore (Eval_cache.key d sc)) scenarios);
        let s = summarize sp engine d in
        incr considered;
        let s' = slim s in
        Spans.span sp "optimize.pareto" (fun () ->
            front := Pareto.insert !front s');
        if s.Objective.feasible then begin
          incr feasible;
          Spans.span sp "optimize.summarize" (fun () ->
              top := insert_top_k s' !top)
        end
      end;
      loop rest
  in
  loop (Candidate.enumerate input.kit input.space);
  let rehydrate s =
    let s = summarize sp engine s.Objective.design in
    ignore (Design.validate s.Objective.design);
    s
  in
  let feasible_list, frontier =
    Spans.span sp "optimize.summarize" (fun () ->
        let f = List.map rehydrate !top in
        (f, List.map rehydrate (Pareto.contents !front)))
  in
  let cache = Eval_cache.of_engine engine in
  counts.hits <- counts.hits + Eval_cache.hits cache;
  counts.misses <- counts.misses + Eval_cache.misses cache;
  counts.evicted <- counts.evicted + Eval_cache.evicted cache;
  counts.frontier <- counts.frontier + List.length frontier;
  counts.feasible <- counts.feasible + !feasible;
  {
    Search.evaluated = [];
    feasible = feasible_list;
    frontier;
    best = (match feasible_list with [] -> None | b :: _ -> Some b);
    considered = !considered;
    feasible_count = !feasible;
  }

(* --- the workload --- *)

let run (cfg : Bench.config) =
  let expected = load_expected (expected_file ~data:cfg.data ~tiny:cfg.tiny) in
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) in
  let objective_of_op = Hashtbl.create 64 in
  let objective i =
    match Hashtbl.find_opt objective_of_op i with
    | Some o -> o
    | None ->
      let o = Prng.int rng (Array.length menu) in
      Hashtbl.replace objective_of_op i o;
      o
  in
  let check input r =
    List.assoc_opt input.objective expected = Some (answer r)
  in
  (* The untraced answer per objective, which the traced replay must
     reproduce. *)
  let untraced = Hashtbl.create 8 in
  let record input r =
    Hashtbl.replace untraced input.objective (answer r);
    check input r
  in
  (* Set-up: the kits and the grid, then one discarded warm-up op. *)
  let build () =
    let space = Whatif.search_space ~scale:(scale ~tiny:cfg.tiny) () in
    let kits = Array.map kit menu in
    let input i =
      let o = objective i in
      { objective = o; kit = kits.(o); space }
    in
    let warm = search (input 0) in
    (input, warm)
  in
  let setup_s, (input, warm) = Bench.setups 5 build in
  let warm_ok = record (input 0) warm in
  let op i =
    let inp = input (i + 1) in
    { Bench.run = (fun () -> search inp); check = record inp }
  in
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let samples = Bench.closed_loop ~seconds op in
  let n = List.length samples in
  let failed = Bench.failures samples + if warm_ok then 0 else 1 in
  let attempted = n + 1 in
  if not cfg.trace then
    {
      Bench.attempted;
      failed;
      metrics = Bench.batch_metrics ~setup_s samples;
      diagnostics = Bench.diagnostics ~batch:true samples;
      notes =
        Bench.tail_note ~what:"ops" ~q:0.9 (Bench.cal_units samples);
    }
  else begin
    Storage_obs.enable ();
    let gc = Spans.start_gc () in
    let sp = Spans.create () in
    let counts =
      {
        enumerated = 0;
        accepted = 0;
        hits = 0;
        misses = 0;
        evicted = 0;
        frontier = 0;
        feasible = 0;
      }
    in
    let traced, gc_time, replay_failed =
      Bench.replays ~n sp gc (fun k ->
          let inp = input (k + 1) in
          let r = replay sp counts inp in
          fun () ->
            check inp r && answer r = Hashtbl.find untraced inp.objective)
    in
    let ops = float_of_int Bench.replayed_ops in
    let op_time = Host.sum (List.map (fun (t, _, _) -> t) traced) in
    let share names = Bench.share sp ~op_time names in
    let layers =
      [
        "optimize.enumerate"; "lint.accepts"; "model.fingerprint";
        "model.cache"; "model.evaluate"; "model.stage.utilization";
        "model.stage.cost"; "model.stage.data_loss";
        "model.stage.recovery_time"; "optimize.pareto"; "optimize.summarize";
      ]
    in
    let per_op x = float_of_int x /. ops in
    let file =
      Filename.concat cfg.out (Printf.sprintf "trace-sweep-%d.json" cfg.seed)
    in
    Spans.write sp file;
    {
      Bench.attempted = attempted + Bench.replayed_ops;
      failed = failed + replay_failed;
      metrics =
        Bench.per_layer
          ([
             Bench.m "optimize.candidates" "count" (per_op counts.enumerated);
             Bench.m "optimize.enumerate.share" "ratio"
               (share [ "optimize.enumerate" ]);
             Bench.m "lint.accepts.share" "ratio" (share [ "lint.accepts" ]);
             Bench.m "lint.accept_ratio" "ratio"
               (Host.ratio (float_of_int counts.accepted)
                  (float_of_int counts.enumerated));
             Bench.m "model.fingerprint.share" "ratio"
               (share [ "model.fingerprint" ]);
             Bench.m "model.cache.share" "ratio" (share [ "model.cache" ]);
             Bench.m "model.cache.hit_ratio" "ratio"
               (Host.ratio (float_of_int counts.hits)
                  (float_of_int (counts.hits + counts.misses)));
             Bench.m "model.cache.evictions" "count" (per_op counts.evicted);
             Bench.m "model.evaluate.share" "ratio"
               (share
                  [
                    "model.evaluate"; "model.stage.utilization";
                    "model.stage.cost"; "model.stage.data_loss";
                    "model.stage.recovery_time";
                  ]);
             Bench.m "model.evaluations" "count" (per_op counts.misses);
             Bench.m "model.stage.utilization.share" "ratio"
               (share [ "model.stage.utilization" ]);
             Bench.m "model.stage.data_loss.share" "ratio"
               (share [ "model.stage.data_loss" ]);
             Bench.m "model.stage.recovery_time.share" "ratio"
               (share [ "model.stage.recovery_time" ]);
             Bench.m "model.stage.cost.share" "ratio"
               (share [ "model.stage.cost" ]);
             Bench.m "optimize.summarize.share" "ratio"
               (share [ "optimize.summarize" ]);
             Bench.m "optimize.pareto.share" "ratio"
               (share [ "optimize.pareto" ]);
             Bench.m "optimize.frontier_size" "count" (per_op counts.frontier);
             Bench.m "optimize.feasible_ratio" "ratio"
               (Host.ratio (float_of_int counts.feasible)
                  (float_of_int counts.accepted));
             Bench.m "optimize.alloc_mw" "Mw"
               (Spans.layer_words sp "optimize." /. ops /. 1e6);
             Bench.m "model.alloc_mw" "Mw"
               (Spans.layer_words sp "model." /. ops /. 1e6);
             Bench.m "gc.share" "ratio" (Host.ratio gc_time op_time);
             Bench.m "trace.overhead" "ratio" (Bench.overhead samples traced);
             Bench.m "trace.coverage" "ratio" (share layers);
           ]
          @ Bench.diagnostics ~batch:true samples);
      diagnostics = [];
      notes = [ "trace written to " ^ file ];
    }
  end
