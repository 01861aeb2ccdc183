open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
module Prng = Storage_workload.Prng
module Workload = Storage_workload.Workload
module Engine = Storage_engine
module Json = Storage_report.Json
module Sim = Storage_sim.Sim

(* --- failure model --- *)

type rates = {
  device_afr : (string * float) list;
  default_afr : float;
  building_burst_per_year : float;
  site_burst_per_year : float;
}

let check_rate ~who r =
  if r < 0. || not (Float.is_finite r) then
    invalid_arg (Printf.sprintf "Fleet.%s: negative or non-finite rate" who)

let rates ?(device_afr = []) ?(default_afr = 0.02)
    ?(building_burst_per_year = 0.005) ?(site_burst_per_year = 0.002) () =
  List.iter (fun (_, r) -> check_rate ~who:"rates" r) device_afr;
  check_rate ~who:"rates" default_afr;
  check_rate ~who:"rates" building_burst_per_year;
  check_rate ~who:"rates" site_burst_per_year;
  { device_afr; default_afr; building_burst_per_year; site_burst_per_year }

let default_rates = rates ()

type config = {
  trials : int;
  horizon : Duration.t;
  seed : int64;
  rates : rates;
}

let config ?(trials = 1000) ?(horizon_years = 5.) ?(seed = 0xCA5CADEL)
    ?(rates = default_rates) () =
  if trials < 1 then invalid_arg "Fleet.config: trials < 1";
  if horizon_years <= 0. || not (Float.is_finite horizon_years) then
    invalid_arg "Fleet.config: non-positive horizon";
  { trials; horizon = Duration.years horizon_years; seed; rates }

let default_config = config ()

(* --- trace sampling --- *)

let afr_of rates (d : Device.t) =
  match List.assoc_opt d.Device.name rates.device_afr with
  | Some r -> r
  | None -> rates.default_afr

(* Arrival offsets of one Poisson process over the horizon, in years. *)
let arrivals rng ~per_year ~horizon_years =
  if per_year <= 0. then []
  else begin
    let rec go acc t =
      let t = t +. Prng.exponential rng ~mean:(1. /. per_year) in
      if t >= horizon_years then List.rev acc else go (t :: acc) t
    in
    go [] 0.
  end

let dedup_keep_order xs =
  List.rev
    (List.fold_left
       (fun acc x -> if List.mem x acc then acc else x :: acc)
       [] xs)

let sample_events ?(rates = default_rates) ~horizon ~seed design =
  let rng = Prng.create ~seed in
  let horizon_years = Duration.to_years horizon in
  let devices = Design.devices design in
  let events_for scope per_year =
    arrivals rng ~per_year ~horizon_years
    |> List.map (fun t -> Scenario.event ~scope ~at:(Duration.years t) ())
  in
  (* Independent per-device arrivals first, then the correlated
     multi-device bursts per distinct building and site. The iteration
     order is the design's first-appearance order, so one seed always
     yields one trace. *)
  let device_events =
    List.concat_map
      (fun (d : Device.t) ->
        events_for (Location.Device d.Device.name) (afr_of rates d))
      devices
  in
  let buildings =
    dedup_keep_order
      (List.map (fun (d : Device.t) -> Location.building d.Device.location)
         devices)
  in
  let sites =
    dedup_keep_order
      (List.map (fun (d : Device.t) -> Location.site d.Device.location)
         devices)
  in
  let building_events =
    List.concat_map
      (fun b -> events_for (Location.Building b) rates.building_burst_per_year)
      buildings
  in
  let site_events =
    List.concat_map
      (fun s -> events_for (Location.Site s) rates.site_burst_per_year)
      sites
  in
  List.stable_sort
    (fun (a : Scenario.event) (b : Scenario.event) ->
      Duration.compare a.Scenario.at b.Scenario.at)
    (device_events @ building_events @ site_events)

(* --- the degenerate single-event reduction --- *)

(* The longest RP cycle period in the hierarchy. Shifting the failure
   instant by a whole number of these leaves the phase of every level
   whose period divides it unchanged (true of all the presets, whose
   periods are 12 h / 1 wk / 4 wk), so a failure years into the horizon
   can be simulated at an equivalent offset within one cycle. *)
let phase_modulus design =
  List.fold_left
    (fun acc (l : Hierarchy.level) ->
      match Technique.schedule l.Hierarchy.technique with
      | None -> acc
      | Some s -> Duration.max acc (Schedule.cycle_period s))
    (Duration.weeks 1.)
    (Hierarchy.levels design.Design.hierarchy)

(* Steady state arrives once every level's worst-case staleness has
   elapsed twice — the deepest RP chain is populated and propagating —
   with a day's floor for sub-daily schedules and two full cycles of the
   slowest level. Much shorter than the simulator's global 12-week
   default for fine-grained schedules: a 1-minute async-batch mirror
   would otherwise pay ~10^5 warmup batch cycles per trial. *)
let adaptive_warmup design =
  let h = design.Design.hierarchy in
  let worst =
    List.fold_left
      (fun acc j -> Duration.max acc (Hierarchy.worst_lag h j))
      Duration.zero
      (List.init (Hierarchy.length h) Fun.id)
  in
  let cycle =
    List.fold_left
      (fun acc (l : Hierarchy.level) ->
        match Technique.schedule l.Hierarchy.technique with
        | None -> acc
        | Some s -> Duration.max acc (Schedule.cycle_period s))
      Duration.zero
      (Hierarchy.levels h)
  in
  Duration.max (Duration.days 1.)
    (Duration.max (Duration.scale 2. worst) (Duration.scale 2. cycle))

let single_event_config design (e : Scenario.event) =
  let m = Duration.to_seconds (phase_modulus design) in
  let phase = Float.rem (Duration.to_seconds e.Scenario.at) m in
  {
    Sim.default_config with
    Sim.warmup =
      Duration.add (adaptive_warmup design) (Duration.seconds phase);
  }

let single_event_measured design (e : Scenario.event) =
  let scenario =
    Scenario.make ~scope:e.Scenario.scope ~target_age:e.Scenario.target_age
      ?object_size:e.Scenario.object_size ()
  in
  Sim.run ~config:(single_event_config design e) design scenario

(* --- trial execution --- *)

type trial = {
  index : int;
  failures : int;
  outage : Duration.t;
  losses : int;
  bytes_lost : Size.t;
  rebuilds : Duration.t list;
}

(* --- cluster decomposition ---

   Failures years apart cannot contend: each recovery is over long
   before the next event arrives. Executing the whole 5-year trace
   through [Sim.run_events] would still simulate every batch cycle in
   between — ~1.3M for a 1-minute mirror schedule — so the trace is
   split into clusters separated by at least [cluster_gap] and each
   cluster is executed independently: singletons through the
   phase-aligned [Sim.run] reduction, true overlaps through
   [Sim.run_events] with the events re-based near the origin (shifted
   earlier by a whole number of phase-modulus cycles, so every event
   keeps its capture phase). The gap is far beyond any recovery the
   presets can price; when the assumption fails anyway — a recovery
   still running as its cluster window closes, or an unrecoverable
   event whose outage must extend to the horizon — the trial falls back
   to the always-correct full-horizon execution. *)

let cluster_gap = Duration.weeks 4.

exception Needs_full_horizon

let split_clusters gap events =
  let gap_s = Duration.to_seconds gap in
  List.fold_left
    (fun acc (e : Scenario.event) ->
      match acc with
      | ((last : Scenario.event) :: _ as cur) :: rest
        when Duration.to_seconds e.Scenario.at
             -. Duration.to_seconds last.Scenario.at
             <= gap_s ->
        (e :: cur) :: rest
      | _ -> [ e ] :: acc)
    [] events
  |> List.rev_map List.rev

let obs_trials = Storage_obs.Counter.make "fleet.trials"
let obs_failures = Storage_obs.Counter.make "fleet.failures"
let obs_losses = Storage_obs.Counter.make "fleet.losses"
let obs_multi = Storage_obs.Counter.make "fleet.multi_event_trials"
let obs_run = Storage_obs.Timer.make "fleet.run"
let obs_rebuild = Storage_obs.Histogram.make "fleet.rebuild_seconds"
let obs_outage = Storage_obs.Histogram.make "fleet.outage_seconds"

let loss_bytes design (loss : Data_loss.loss) =
  let w = design.Design.workload in
  match loss with
  | Data_loss.Updates d ->
    if Duration.is_zero d then Size.zero else Workload.unique_bytes w d
  | Data_loss.Entire_object -> w.Workload.data_capacity

(* Total length of the union of the [(start, stop)] intervals, so
   overlapping outages (a burst's absorbed recoveries) are not counted
   twice. *)
let union_length intervals =
  let sorted =
    List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals
  in
  let rec go acc cur = function
    | [] -> ( match cur with None -> acc | Some (s, e) -> acc +. (e -. s))
    | (s, e) :: rest -> (
      match cur with
      | None -> go acc (Some (s, e)) rest
      | Some (cs, ce) ->
        if s <= ce then go acc (Some (cs, Float.max ce e)) rest
        else go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0. None sorted

let obs_fallbacks = Storage_obs.Counter.make "fleet.full_horizon_fallbacks"

(* One cluster's contribution — outage intervals in horizon-offset
   seconds, unrecoverable losses, bytes lost, completed rebuilds — or
   [Needs_full_horizon] when the independence assumption does not
   hold. *)
let cluster_results design ~horizon_s cluster =
  match cluster with
  | [] -> ([], 0, Size.zero, [])
  | [ (e : Scenario.event) ] -> (
    let at_s = Duration.to_seconds e.Scenario.at in
    let m = single_event_measured design e in
    let bytes = loss_bytes design m.Sim.data_loss in
    match (m.Sim.source_level, m.Sim.recovery_time) with
    | None, _ -> ([ (at_s, horizon_s) ], 1, bytes, [])
    | Some _, None | Some 0, Some _ -> ([], 0, bytes, [])
    | Some _, Some rt ->
      let stop_s = at_s +. Duration.to_seconds rt in
      if stop_s > horizon_s then ([ (at_s, horizon_s) ], 0, bytes, [])
      else ([ (at_s, stop_s) ], 0, bytes, [ rt ]))
  | (first : Scenario.event) :: _ ->
    let m_s = Duration.to_seconds (phase_modulus design) in
    let first_at = Duration.to_seconds first.Scenario.at in
    let shift = first_at -. Float.rem first_at m_s in
    let rebased =
      List.map
        (fun (e : Scenario.event) ->
          Scenario.event ~scope:e.Scenario.scope
            ~at:(Duration.seconds (Duration.to_seconds e.Scenario.at -. shift))
            ~target_age:e.Scenario.target_age
            ?object_size:e.Scenario.object_size ())
        cluster
    in
    let last_at' =
      List.fold_left
        (fun acc (e : Scenario.event) ->
          Float.max acc (Duration.to_seconds e.Scenario.at))
        0. rebased
    in
    let gap_s = Duration.to_seconds cluster_gap in
    (* The local window runs one gap past the last event unless the
       global horizon cuts it shorter. *)
    let clipped = horizon_s -. shift <= last_at' +. gap_s in
    let local_horizon_s = Float.min (last_at' +. gap_s) (horizon_s -. shift) in
    let config =
      { Sim.default_config with Sim.warmup = adaptive_warmup design }
    in
    let injected =
      Sim.run_events ~config
        ~horizon:(Duration.seconds local_horizon_s)
        design
        (Scenario.of_events rebased)
    in
    let warmup_s = Duration.to_seconds config.Sim.warmup in
    List.fold_left
      (fun (ivs, losses, bytes, rebuilds) (inj : Sim.injected) ->
        let start_s =
          Duration.to_seconds inj.Sim.injected_at -. warmup_s +. shift
        in
        let bytes = Size.add bytes (loss_bytes design inj.Sim.data_loss) in
        match inj.Sim.source_level with
        | None ->
          (* Total loss changes the state every later cluster would start
             from; only the full-horizon execution gets that right. *)
          raise Needs_full_horizon
        | Some 0 -> (ivs, losses, bytes, rebuilds)
        | Some _ -> (
          match inj.Sim.recovery_end with
          | None ->
            if clipped then
              (* a genuine end-of-horizon truncation *)
              ((start_s, horizon_s) :: ivs, losses, bytes, rebuilds)
            else
              (* the recovery outlived the cluster window: the
                 independence assumption failed *)
              raise Needs_full_horizon
          | Some t ->
            let stop_s = Duration.to_seconds t -. warmup_s +. shift in
            if stop_s > horizon_s then
              ((start_s, horizon_s) :: ivs, losses, bytes, rebuilds)
            else
              ( (start_s, stop_s) :: ivs,
                losses,
                bytes,
                Duration.seconds (stop_s -. start_s) :: rebuilds )))
      ([], 0, Size.zero, []) injected
    |> fun (ivs, losses, bytes, rebuilds) ->
    (ivs, losses, bytes, List.rev rebuilds)

let run_trial ?(rates = default_rates) ~horizon ~seed ~index design =
  let events = sample_events ~rates ~horizon ~seed design in
  Storage_obs.Counter.incr obs_trials;
  Storage_obs.Counter.add obs_failures (List.length events);
  let horizon_s = Duration.to_seconds horizon in
  let finish outage_s losses bytes rebuilds =
    Storage_obs.Counter.add obs_losses losses;
    Storage_obs.Histogram.observe obs_outage outage_s;
    List.iter
      (fun r -> Storage_obs.Histogram.observe obs_rebuild (Duration.to_seconds r))
      rebuilds;
    {
      index;
      failures = List.length events;
      outage = Duration.seconds (Float.min outage_s horizon_s);
      losses;
      bytes_lost = bytes;
      rebuilds;
    }
  in
  match events with
  | [] -> finish 0. 0 Size.zero []
  | [ e ] -> (
    (* Exactly the single-scenario simulator, phase-aligned to the
       sampled instant: the reduction the fleet-degenerate oracle pins. *)
    let m = single_event_measured design e in
    let bytes = loss_bytes design m.Sim.data_loss in
    match (m.Sim.source_level, m.Sim.recovery_time) with
    | None, _ ->
      (* Unrecoverable: the object is down (and lost) from the failure
         to the end of the horizon. *)
      finish (horizon_s -. Duration.to_seconds e.Scenario.at) 1 bytes []
    | Some _, None | Some 0, Some _ -> finish 0. 0 bytes []
    | Some _, Some rt -> finish (Duration.to_seconds rt) 0 bytes [ rt ])
  | events -> (
    Storage_obs.Counter.incr obs_multi;
    let clustered () =
      let parts =
        List.map
          (cluster_results design ~horizon_s)
          (split_clusters cluster_gap events)
      in
      let intervals = List.concat_map (fun (i, _, _, _) -> i) parts in
      let losses = List.fold_left (fun acc (_, l, _, _) -> acc + l) 0 parts in
      let bytes =
        List.fold_left (fun acc (_, _, b, _) -> Size.add acc b) Size.zero parts
      in
      let rebuilds = List.concat_map (fun (_, _, _, r) -> r) parts in
      finish (union_length intervals) losses bytes rebuilds
    in
    let full_horizon () =
      (* The always-correct slow path: every event at its actual offset
         in one [Sim.run_events] execution over the whole horizon. *)
      Storage_obs.Counter.incr obs_fallbacks;
      let config =
        { Sim.default_config with Sim.warmup = adaptive_warmup design }
      in
      let injected =
        Sim.run_events ~config ~horizon design (Scenario.of_events events)
      in
      let warmup_s = Duration.to_seconds config.Sim.warmup in
      let end_s = warmup_s +. horizon_s in
      let intervals, losses, bytes, rebuilds =
        List.fold_left
          (fun (ivs, losses, bytes, rebuilds) (inj : Sim.injected) ->
            let start_s = Duration.to_seconds inj.Sim.injected_at in
            let bytes = Size.add bytes (loss_bytes design inj.Sim.data_loss) in
            match inj.Sim.source_level with
            | None -> ((start_s, end_s) :: ivs, losses + 1, bytes, rebuilds)
            | Some 0 ->
              (* no recovery was needed *)
              (ivs, losses, bytes, rebuilds)
            | Some _ -> (
              match inj.Sim.recovery_end with
              | None ->
                (* still rebuilding when the horizon closed *)
                ((start_s, end_s) :: ivs, losses, bytes, rebuilds)
              | Some t ->
                let stop_s = Duration.to_seconds t in
                ( (start_s, stop_s) :: ivs,
                  losses,
                  bytes,
                  Duration.seconds (stop_s -. start_s) :: rebuilds )))
          ([], 0, Size.zero, []) injected
      in
      finish (union_length intervals) losses bytes (List.rev rebuilds)
    in
    match clustered () with
    | trial -> trial
    | exception Needs_full_horizon -> full_horizon ())

(* --- aggregation --- *)

type report = {
  design : string;
  trials : int;
  horizon : Duration.t;
  seed : int64;
  failures : int;
  failed_trials : int;
  multi_event_trials : int;
  availability : float;
  availability_nines : float;
  loss_trials : int;
  durability : float;
  durability_nines : float;
  mean_outage : Duration.t;
  expected_loss : Size.t;
  rebuilds : int;
  rebuild_p50 : Duration.t option;
  rebuild_p95 : Duration.t option;
  rebuild_p99 : Duration.t option;
  rebuild_max : Duration.t option;
}

let nines x = if x >= 1. then Float.infinity else -.log10 (1. -. x)

let aggregate design (config : config) (trials : trial list) =
  let n = float_of_int config.trials in
  let horizon_s = Duration.to_seconds config.horizon in
  let total_outage_s =
    List.fold_left
      (fun acc (t : trial) -> acc +. Duration.to_seconds t.outage)
      0. trials
  in
  let failures =
    List.fold_left (fun acc (t : trial) -> acc + t.failures) 0 trials
  in
  let failed_trials =
    List.length (List.filter (fun (t : trial) -> t.failures > 0) trials)
  in
  let multi_event_trials =
    List.length (List.filter (fun (t : trial) -> t.failures > 1) trials)
  in
  let loss_trials =
    List.length (List.filter (fun (t : trial) -> t.losses > 0) trials)
  in
  let bytes =
    List.fold_left
      (fun acc (t : trial) -> Size.add acc t.bytes_lost)
      Size.zero trials
  in
  let rebuild_s =
    List.concat_map
      (fun (t : trial) -> List.map Duration.to_seconds t.rebuilds)
      trials
    |> List.sort Float.compare
    |> Array.of_list
  in
  let percentile p =
    let m = Array.length rebuild_s in
    if m = 0 then None
    else Some (Duration.seconds rebuild_s.(int_of_float (p *. float_of_int (m - 1))))
  in
  let availability = 1. -. (total_outage_s /. (n *. horizon_s)) in
  let durability = 1. -. (float_of_int loss_trials /. n) in
  {
    design = design.Design.name;
    trials = config.trials;
    horizon = config.horizon;
    seed = config.seed;
    failures;
    failed_trials;
    multi_event_trials;
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

let run ?engine ?(config = default_config) design =
  let engine =
    match engine with Some e -> e | None -> Engine.create ()
  in
  Storage_obs.Timer.time obs_run @@ fun () ->
  (* Every trial's seed comes off one master stream up front, so the
     sampled traces — and therefore the whole report — are independent of
     how the trials are sliced across domains (same discipline as
     [Risk.monte_carlo]). *)
  let master = Prng.create ~seed:config.seed in
  let seeds =
    List.init config.trials (fun i -> (i, Prng.next_int64 master))
  in
  let chunk =
    match Engine.chunk engine with
    | Some c -> c
    | None ->
      (* Coarse chunks: trials are cheap when the sampled trace is empty,
         so fine-grained dealing would be all dispatch overhead. *)
      Int.max 1 (config.trials / Int.max 1 (Engine.jobs engine * 8))
  in
  let trials =
    Engine.map_seq ~chunk engine
      (fun (i, s) ->
        run_trial ~rates:config.rates ~horizon:config.horizon ~seed:s ~index:i
          design)
      (List.to_seq seeds)
    |> List.of_seq
  in
  aggregate design config trials

let erasure_sweep ?engine ?(config = default_config) ~make pairs =
  List.map
    (fun (required, fragments) ->
      if required < 1 || fragments < required then
        invalid_arg "Fleet.erasure_sweep: need 1 <= required <= fragments";
      (required, fragments, run ?engine ~config (make ~fragments ~required)))
    pairs

(* --- rendering --- *)

let json_opt_hours = function
  | None -> Json.Null
  | Some d -> Json.Float (Duration.to_hours d)

let to_json r =
  Json.Obj
    [
      ("design", Json.String r.design);
      ("trials", Json.Int r.trials);
      ("horizon_years", Json.Float (Duration.to_years r.horizon));
      ("seed", Json.String (Int64.to_string r.seed));
      ("failures", Json.Int r.failures);
      ("failed_trials", Json.Int r.failed_trials);
      ("multi_event_trials", Json.Int r.multi_event_trials);
      ("availability", Json.Float r.availability);
      ("availability_nines", Json.Float r.availability_nines);
      ("loss_trials", Json.Int r.loss_trials);
      ("durability", Json.Float r.durability);
      ("durability_nines", Json.Float r.durability_nines);
      ("mean_outage_hours", Json.Float (Duration.to_hours r.mean_outage));
      ("expected_loss_gib", Json.Float (Size.to_gib r.expected_loss));
      ("rebuilds", Json.Int r.rebuilds);
      ( "rebuild_hours",
        Json.Obj
          [
            ("p50", json_opt_hours r.rebuild_p50);
            ("p95", json_opt_hours r.rebuild_p95);
            ("p99", json_opt_hours r.rebuild_p99);
            ("max", json_opt_hours r.rebuild_max);
          ] );
    ]

let pp_nines ppf x =
  if Float.is_finite x then Fmt.pf ppf "%.2f nines"
    x
  else Fmt.pf ppf "no loss observed"

let pp_opt_duration ppf = function
  | None -> Fmt.string ppf "-"
  | Some d -> Duration.pp ppf d

let pp ppf r =
  Fmt.pf ppf
    "@[<v>fleet Monte Carlo: %s@,\
    \  %d trials x %a horizon (seed %Ld)@,\
    \  failures: %d across %d trials (%d with overlapping events)@,\
    \  availability: %.6f (%a)@,\
    \  durability:   %.6f (%a); %d trials lost data@,\
    \  mean outage %a/trial; expected loss %a/trial@,\
    \  rebuilds: %d  p50 %a  p95 %a  p99 %a  max %a@]" r.design r.trials
    Duration.pp r.horizon r.seed r.failures r.failed_trials
    r.multi_event_trials r.availability pp_nines r.availability_nines
    r.durability pp_nines r.durability_nines r.loss_trials Duration.pp
    r.mean_outage Size.pp r.expected_loss r.rebuilds pp_opt_duration
    r.rebuild_p50 pp_opt_duration r.rebuild_p95 pp_opt_duration r.rebuild_p99
    pp_opt_duration r.rebuild_max
