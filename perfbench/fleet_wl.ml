(* The fleet workloads: one op is one [Fleet.run] Monte Carlo batch on a
   fresh serial engine. fleet_tape runs the baseline (split mirror, tape
   backup, vault): mostly quiet or single-failure trials, each a short
   simulator run. fleet_mirror runs the 10-link asynchronous mirror, whose
   one-minute batches make every simulated failure event-dense. *)

open Storage_units
open Storage_model
module Fleet = Storage_fleet.Fleet
module Prng = Storage_workload.Prng
module Baseline = Storage_presets.Baseline
module Whatif = Storage_presets.Whatif

type kind = Tape | Mirror

let design = function
  | Tape -> Baseline.design
  | Mirror -> Whatif.async_mirror ~links:10

let name = function Tape -> "fleet_tape" | Mirror -> "fleet_mirror"

(* Trials per op: sized so one op takes 0.1-0.3 s on a 2-vCPU host. *)
let trials kind ~tiny =
  match (kind, tiny) with
  | Tape, false -> 600
  | Mirror, false -> 20
  | Tape, true -> 40
  | Mirror, true -> 4

let config kind ~tiny ~seed =
  Fleet.config ~trials:(trials kind ~tiny) ~horizon_years:5. ~seed ()

(* Trial seeds exactly as [Fleet.run] draws them: one master splitmix64
   stream, in trial order. *)
let trial_seeds (config : Fleet.config) =
  let master = Prng.create ~seed:config.Fleet.seed in
  List.init config.Fleet.trials (fun i -> (i, Prng.next_int64 master))

(* The number of failure events in each of an op's trials, sampled as the
   trials will be. *)
let event_counts (config : Fleet.config) design =
  List.map
    (fun (_, seed) ->
      List.length
        (Fleet.sample_events ~rates:config.Fleet.rates
           ~horizon:config.Fleet.horizon ~seed design))
    (trial_seeds config)

(* fleet_mirror's op shape: how many of its trials fail (all once). An op's
   time is about the number of event-dense simulator runs it draws, so
   20-trial ops with a free mix form clusters 20-25% apart (4 failed
   trials, 5, 6, ...), and a run's median op jumped between clusters from
   seed to seed (12% spread between runs). Op seeds are drawn from the
   workload stream and kept only when their trials have this shape, the
   most common one (about one seed in ten). fleet_tape's 600-trial ops need
   no help. *)
let shape kind ~tiny =
  match (kind, tiny) with
  | Mirror, false -> Some 4
  | Mirror, true -> Some 1
  | Tape, _ -> None

(* The op has [failed] failed trials, none of them with a second event. *)
let has_shape config design failed =
  let counts = event_counts config design in
  List.for_all (fun n -> n <= 1) counts
  && List.length (List.filter (fun n -> n = 1) counts) = failed

let run_op (config : Fleet.config) design =
  Bench.with_engine (fun engine -> Fleet.run ~engine ~config design)

(* The check: the report's event counts agree with a replay of its trials
   through [Fleet.sample_events]. *)
let counts_agree config design (r : Fleet.report) =
  let counts = event_counts config design in
  let count p = List.length (List.filter p counts) in
  r.Fleet.failures = List.fold_left ( + ) 0 counts
  && r.Fleet.failed_trials = count (fun n -> n > 0)
  && r.Fleet.multi_event_trials = count (fun n -> n > 1)

let json r = Storage_report.Json.to_string_pretty (Fleet.to_json r)

(* The digest of the report at the framework's default fleet seed,
   committed with the benchmark. *)
let digest_file ~data kind ~tiny =
  Filename.concat data
    (Printf.sprintf "%s%s.digest" (name kind) (if tiny then "-tiny" else ""))

let expect kind ~tiny =
  let config = config kind ~tiny ~seed:Fleet.default_config.Fleet.seed in
  Digest.to_hex (Digest.string (json (run_op config (design kind))))

(* --- aggregation, mirrored for the replay --- *)

(* [Fleet.run] folds its trials into a report with a private aggregate;
   the replay needs the same fold over the trials it ran one by one. The
   check that the two reports render to the same JSON keeps this mirror
   honest. *)
let aggregate (config : Fleet.config) (design : Design.t)
    (trials : Fleet.trial list) =
  let n = float_of_int config.Fleet.trials in
  let horizon_s = Duration.to_seconds config.Fleet.horizon in
  let total_outage_s =
    List.fold_left
      (fun acc (t : Fleet.trial) -> acc +. Duration.to_seconds t.Fleet.outage)
      0. trials
  in
  let count (p : Fleet.trial -> bool) = List.length (List.filter p trials) in
  let bytes =
    List.fold_left
      (fun acc (t : Fleet.trial) -> Size.add acc t.Fleet.bytes_lost)
      Size.zero trials
  in
  let rebuild_s =
    List.concat_map
      (fun (t : Fleet.trial) -> List.map Duration.to_seconds t.Fleet.rebuilds)
      trials
    |> List.sort Float.compare |> Array.of_list
  in
  let percentile p =
    let m = Array.length rebuild_s in
    if m = 0 then None
    else
      Some
        (Duration.seconds rebuild_s.(int_of_float (p *. float_of_int (m - 1))))
  in
  let nines x = if x >= 1. then Float.infinity else -.log10 (1. -. x) in
  let loss_trials = count (fun t -> t.Fleet.losses > 0) in
  let availability = 1. -. (total_outage_s /. (n *. horizon_s)) in
  let durability = 1. -. (float_of_int loss_trials /. n) in
  {
    Fleet.design = design.Design.name;
    trials = config.Fleet.trials;
    horizon = config.Fleet.horizon;
    seed = config.Fleet.seed;
    failures =
      List.fold_left (fun acc (t : Fleet.trial) -> acc + t.Fleet.failures) 0 trials;
    failed_trials = count (fun t -> t.Fleet.failures > 0);
    multi_event_trials = count (fun t -> t.Fleet.failures > 1);
    availability;
    availability_nines = nines availability;
    loss_trials;
    durability;
    durability_nines = nines durability;
    mean_outage = Duration.seconds (total_outage_s /. n);
    expected_loss = Size.scale (1. /. n) bytes;
    rebuilds = Array.length rebuild_s;
    rebuild_p50 = percentile 0.50;
    rebuild_p95 = percentile 0.95;
    rebuild_p99 = percentile 0.99;
    rebuild_max = percentile 1.0;
  }

(* --- the traced replay --- *)

let counter = Storage_obs.Counter.make
let c_runs = counter "sim.runs"
let c_events = counter "sim.events"
let c_flow = counter "sim.flow_advances"
let c_multi_runs = counter "sim.multi_runs"
let c_replans = counter "sim.recovery_replans"
let c_fallbacks = counter "fleet.full_horizon_fallbacks"
let sim_counters = [ c_runs; c_events; c_flow; c_multi_runs; c_replans; c_fallbacks ]
let sim_timers = [ Storage_obs.Timer.make "sim.run"; Storage_obs.Timer.make "sim.run_events" ]
let sim_seconds () = Host.sum (List.map Storage_obs.Timer.total_seconds sim_timers)

type tally = {
  mutable quiet : int;
  mutable single : int;
  mutable multi : int;
  mutable events : int;
  mutable single_words : float;
}

(* [Fleet.run] one layer at a time: each trial's trace through
   [Fleet.sample_events], then the trial through [Fleet.run_trial] (its
   simulator time read off the sim timers), then the aggregate. *)
let replay sp tally (config : Fleet.config) design =
  let rates = config.Fleet.rates and horizon = config.Fleet.horizon in
  let trials =
    List.map
      (fun (index, seed) ->
        let events =
          Spans.span sp "fleet.sample" (fun () ->
              Fleet.sample_events ~rates ~horizon ~seed design)
        in
        tally.events <- tally.events + List.length events;
        let name =
          match events with
          | [] ->
            tally.quiet <- tally.quiet + 1;
            "fleet.trial_quiet"
          | [ _ ] ->
            tally.single <- tally.single + 1;
            "fleet.trial_single"
          | _ ->
            tally.multi <- tally.multi + 1;
            "fleet.trial_multi"
        in
        Spans.span sp name (fun () ->
            let before = sim_seconds () in
            let t = Fleet.run_trial ~rates ~horizon ~seed ~index design in
            Spans.derived sp [ ("sim.run", sim_seconds () -. before) ];
            t))
      (trial_seeds config)
  in
  (trials, Spans.span sp "fleet.aggregate" (fun () -> aggregate config design trials))

(* Single-event trials once more through [Fleet.single_event_measured], the
   documented exact reduction to [Sim.run], outside the op: the simulator's
   own allocation, and a check that the reduction and the trial agree on
   the rebuild. *)
let singles_agree sp tally (config : Fleet.config) design trials =
  List.for_all2
    (fun (_, seed) (t : Fleet.trial) ->
      match
        Fleet.sample_events ~rates:config.Fleet.rates
          ~horizon:config.Fleet.horizon ~seed design
      with
      | [ e ] ->
        let w0 = Gc.minor_words () in
        let m =
          Spans.span sp "sim.single_event" (fun () ->
              Fleet.single_event_measured design e)
        in
        tally.single_words <- tally.single_words +. (Gc.minor_words () -. w0);
        (match (m.Storage_sim.Sim.source_level, m.Storage_sim.Sim.recovery_time) with
        | Some l, Some rt when l > 0 -> t.Fleet.rebuilds = [ rt ]
        | _ -> true)
      | _ -> true)
    (trial_seeds config) trials

(* --- the workload --- *)

let run kind (cfg : Bench.config) =
  let design = design kind in
  let expected_digest =
    In_channel.with_open_text
      (digest_file ~data:cfg.data kind ~tiny:cfg.tiny)
      In_channel.input_all
    |> String.trim
  in
  let rng = Prng.create ~seed:(Int64.of_int cfg.seed) in
  let op_seeds = Hashtbl.create 64 in
  let rec draw () =
    let c = config kind ~tiny:cfg.tiny ~seed:(Prng.next_int64 rng) in
    match shape kind ~tiny:cfg.tiny with
    | Some failed when not (has_shape c design failed) -> draw ()
    | _ -> c
  in
  let op_config i =
    match Hashtbl.find_opt op_seeds i with
    | Some c -> c
    | None ->
      let c = draw () in
      Hashtbl.replace op_seeds i c;
      c
  in
  let check config r = counts_agree config design r in
  (* Set-up: the design, then one discarded warm-up op at the framework's
     default fleet seed, whose report must match the committed digest. *)
  let default_config =
    config kind ~tiny:cfg.tiny ~seed:Fleet.default_config.Fleet.seed
  in
  let setup_s, warm =
    Bench.setups 5 (fun () -> run_op default_config design)
  in
  let warm_ok =
    check default_config warm
    && Digest.to_hex (Digest.string (json warm)) = expected_digest
  in
  let untraced = Hashtbl.create 64 in
  let op i =
    let config = op_config i in
    {
      Bench.run = (fun () -> run_op config design);
      check =
        (fun r ->
          Hashtbl.replace untraced i (json r);
          check config r);
    }
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
      notes = Bench.tail_note ~what:"ops" ~q:0.9 (Bench.cal_units samples);
    }
  else begin
    Storage_obs.enable ();
    let gc = Spans.start_gc () in
    let sp = Spans.create () in
    let tally = { quiet = 0; single = 0; multi = 0; events = 0; single_words = 0. } in
    let counted = Array.make (List.length sim_counters) 0 in
    let traced, gc_time, replay_failed =
      Bench.replays ~n sp gc (fun k ->
          let config = op_config k in
          let v0 = List.map Storage_obs.Counter.value sim_counters in
          let trials, r = replay sp tally config design in
          List.iteri
            (fun j (c, v) ->
              counted.(j) <- counted.(j) + Storage_obs.Counter.value c - v)
            (List.combine sim_counters v0);
          fun () ->
            json r = Hashtbl.find untraced k
            && check config r
            && singles_agree sp tally config design trials)
    in
    let ops = float_of_int Bench.replayed_ops in
    let delta = Array.to_list (Array.map float_of_int counted) in
    let runs, events, flow, multi_runs, replans, fallbacks =
      match delta with
      | [ a; b; c; d; e; f ] -> (a, b, c, d, e, f)
      | _ -> assert false
    in
    let op_time = Host.sum (List.map (fun (t, _, _) -> t) traced) in
    let share names = Bench.share sp ~op_time names in
    let per_op x = x /. ops in
    let overhead = Bench.overhead samples traced in
    let file =
      Filename.concat cfg.out
        (Printf.sprintf "trace-%s-%d.json" (name kind) cfg.seed)
    in
    Spans.write sp file;
    {
      Bench.attempted = attempted + Bench.replayed_ops;
      failed = failed + replay_failed;
      metrics =
        Bench.per_layer
          ([
             Bench.m "fleet.trials" "count"
               (per_op (float_of_int (tally.quiet + tally.single + tally.multi)));
             Bench.m "fleet.trials_quiet" "count" (per_op (float_of_int tally.quiet));
             Bench.m "fleet.trials_single" "count" (per_op (float_of_int tally.single));
             Bench.m "fleet.trials_multi" "count" (per_op (float_of_int tally.multi));
             Bench.m "fleet.events_sampled" "count" (per_op (float_of_int tally.events));
             Bench.m "fleet.sample.share" "ratio" (share [ "fleet.sample" ]);
             Bench.m "fleet.trial_quiet.share" "ratio" (share [ "fleet.trial_quiet" ]);
             Bench.m "fleet.trial_single.share" "ratio" (share [ "fleet.trial_single" ]);
             Bench.m "fleet.trial_multi.share" "ratio" (share [ "fleet.trial_multi" ]);
             Bench.m "fleet.aggregate.share" "ratio" (share [ "fleet.aggregate" ]);
             Bench.m "fleet.full_horizon_fallbacks" "count" (per_op fallbacks);
             Bench.m "fleet.alloc_mw" "Mw" (Spans.layer_words sp "fleet." /. ops /. 1e6);
             Bench.m "sim.run.share" "ratio" (share [ "sim.run" ]);
             Bench.m "sim.runs" "count" (per_op runs);
             Bench.m "sim.events" "count" (per_op events);
             Bench.m "sim.events_per_run" "count" (Host.ratio events runs);
             Bench.m "sim.flow_advances" "count" (per_op flow);
             Bench.m "sim.multi_runs" "count" (per_op multi_runs);
             Bench.m "sim.recovery_replans" "count" (per_op replans);
             Bench.m "sim.alloc_mw" "Mw" (tally.single_words /. ops /. 1e6);
             Bench.m "gc.share" "ratio" (Host.ratio gc_time op_time);
             Bench.m "trace.overhead" "ratio" overhead;
             Bench.m "trace.coverage" "ratio"
               (share
                  [
                    "fleet.sample"; "fleet.trial_quiet"; "fleet.trial_single";
                    "fleet.trial_multi"; "fleet.aggregate"; "sim.run";
                  ]);
           ]
          @ Bench.diagnostics ~batch:true samples);
      diagnostics = [];
      notes = [ "trace written to " ^ file ];
    }
  end
