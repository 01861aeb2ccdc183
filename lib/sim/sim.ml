open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model

let log_src =
  Logs.Src.create "storage.sim" ~doc:"storage dependability simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  warmup : Duration.t;
  log : bool;
  outage : (int * Duration.t) option;
  record_events : bool;
}

let default_config =
  { warmup = Duration.weeks 12.; log = false; outage = None;
    record_events = false }

type measured = {
  failure_time : Duration.t;
  source_level : int option;
  data_loss : Data_loss.loss;
  recovery_time : Duration.t option;
  rp_count : int array;
  rp_newest_age : Duration.t option array;
  rp_oldest_age : Duration.t option array;
  bandwidth_utilization : (string * float) list;
  timeline : (Duration.t * string) list;
}

type rp = { capture_time : float }
type kind = K_full | K_incr of int

type event =
  | Capture of { level : int; kind : kind }
  | Transfer_start of {
      level : int;
      capture : float;
      size : float;
      prop : float;
    }
  | Shipment_arrive of { level : int; capture : float }
  | Recovery_step of { rid : int }
      (* recovering data is ready at the head of the recovery's remaining
         path; plan the next hop *)
  | Recovery_xfer of { rid : int }
      (* the next hop's transfer may begin (source staged, receiver
         provisioned); add the flow *)

type level_state = {
  sched : Schedule.t option;
  store : rp list ref;  (* newest capture first *)
  keep : int;
}

type state = {
  design : Design.t;
  hierarchy : Hierarchy.t;
  levels : level_state array;
  queue : event Event_queue.t;
  net : Flow_net.t;
  nodes : (string, Flow_net.node) Hashtbl.t;  (* device/link name -> node *)
  routes : (Flow_net.node * int) list array;
      (* level j -> the nodes an RP propagation into j occupies *)
  batch : event Event_queue.batch;  (* the events due at [now] *)
  mutable inflight : (Flow_net.flow * (int * float)) list;
  mutable now : float;
  verbose : bool;
  mutable outage_level : int option;
  mutable outage_start : float;
  reservations : (string * float) list;  (* device name -> reserved B/s *)
  mutable record : bool;
  mutable events : (float * string) list;  (* newest first *)
  (* Multi-failure execution state ([run_events] only; inert in [run]).
     [available_at] maps a destroyed device to the absolute time its spare
     is provisioned (infinity: no applicable spare); absent means the
     device was never destroyed. *)
  available_at : (string, float) Hashtbl.t;
  mutable capture_gate : int -> bool;
  mutable rec_inflight : (Flow_net.flow * int) list;
  mutable on_recovery : [ `Step of int | `Xfer of int | `Done of int ] -> unit;
}

let secs = Duration.to_seconds

(* Simulator throughput metrics (no-ops until stats are enabled): discrete
   events handled, flow-network advances, and whole runs. *)
let obs_runs = Storage_obs.Counter.make "sim.runs"
let obs_events = Storage_obs.Counter.make "sim.events"
let obs_flow_advances = Storage_obs.Counter.make "sim.flow_advances"
let t_sim_run = Storage_obs.Timer.make "sim.run"

(* The timeline is formatted only when recording: otherwise the format's
   arguments are consumed without building a string. *)
let record st fmt =
  if st.record then
    Printf.ksprintf (fun msg -> st.events <- (st.now, msg) :: st.events) fmt
  else Printf.ikfprintf ignore () fmt

(* Techniques whose normal-mode bandwidth is a continuous background load
   (client I/O, resilvering, copy-on-write); their demands become static
   reservations, while backup / vaulting / mirroring propagation is modeled
   as explicit flows. *)
let reserved_technique name =
  List.mem name [ "foreground"; "split mirror"; "virtual snapshot" ]

let build_network design hierarchy =
  let net = Flow_net.create () in
  let nodes = Hashtbl.create 8 in
  let reservations = ref [] in
  List.iter
    (fun (d : Device.t) ->
      let bw = Rate.to_bytes_per_sec (Device.max_bandwidth d) in
      if bw > 0. then begin
        let node = Flow_net.add_node net ~name:d.Device.name ~capacity:bw in
        let reservation =
          Design.loaded_demands_on design d
          |> Demand.by_technique
          |> List.fold_left
               (fun acc (tech, demand) ->
                 if reserved_technique tech then
                   acc +. Rate.to_bytes_per_sec (Demand.total_bw demand)
                 else acc)
               0.
        in
        Flow_net.set_reservation net node reservation;
        reservations := (d.Device.name, reservation) :: !reservations;
        Hashtbl.replace nodes d.Device.name node
      end)
    (Design.devices design);
  List.iter
    (fun (l : Hierarchy.level) ->
      match l.Hierarchy.link with
      | Some link when not (Hashtbl.mem nodes link.Interconnect.name) -> (
        match Interconnect.bandwidth link with
        | Some bw ->
          let node =
            Flow_net.add_node net ~name:link.Interconnect.name
              ~capacity:(Rate.to_bytes_per_sec bw)
          in
          Hashtbl.replace nodes link.Interconnect.name node
        | None -> ())
      | Some _ | None -> ())
    (Hierarchy.levels hierarchy);
  (net, nodes, List.rev !reservations)

let store_rp st level capture =
  let ls = st.levels.(level) in
  let rec insert = function
    | [] -> [ { capture_time = capture } ]
    | hd :: _ as rest when hd.capture_time <= capture ->
      { capture_time = capture } :: rest
    | hd :: tl -> hd :: insert tl
  in
  let updated = insert !(ls.store) in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | hd :: tl -> hd :: take (n - 1) tl
  in
  ls.store := take ls.keep updated;
  record st "level %d stores RP captured %.0f s ago" level (st.now -. capture);
  if st.verbose then
    Log.debug (fun m ->
        m "t=%.0f: level %d stores RP captured at %.0f" st.now level capture)

let newest st level =
  match !(st.levels.(level).store) with [] -> None | rp :: _ -> Some rp

(* Capture times within one cycle: the full at the end of its accumulation
   window, then each incremental at the end of its own. Scheduling the next
   cycle when the current full fires keeps the queue shallow. *)
let schedule_cycle st level ~cycle_start =
  match st.levels.(level).sched with
  | None -> ()
  | Some s ->
    let full_at = cycle_start +. secs s.Schedule.full.Schedule.accumulation in
    Event_queue.push st.queue ~time:full_at (Capture { level; kind = K_full });
    (match s.Schedule.secondary with
    | None -> ()
    | Some (_, w) ->
      for k = 1 to s.Schedule.cycle_count do
        let at = full_at +. (float_of_int k *. secs w.Schedule.accumulation) in
        Event_queue.push st.queue ~time:at
          (Capture { level; kind = K_incr k })
      done)

let kind_windows (s : Schedule.t) = function
  | K_full -> s.Schedule.full
  | K_incr _ -> (
    match s.Schedule.secondary with
    | Some (_, w) -> w
    | None -> s.Schedule.full)

(* Bytes actually moved when an RP propagates to [level]. Colocated PiT
   copies (split mirrors, snapshots) materialize instantaneously at the
   split — their background resilvering/copy-on-write load is already part
   of the device reservations. Mirrors send one batch of coalesced unique
   updates. Backup sends fulls or incrementals. *)
let rp_transfer_size design technique (s : Schedule.t) kind =
  match (technique : Technique.t) with
  | Technique.Primary_copy _ | Technique.Split_mirror _
  | Technique.Virtual_snapshot _ ->
    Size.zero
  | Technique.Remote_mirror { schedule; _ } ->
    Storage_workload.Workload.unique_bytes design.Design.workload
      schedule.Schedule.full.Schedule.accumulation
  | Technique.Erasure_coded { schedule; _ } as tech ->
    Size.scale
      (Technique.expansion_factor tech)
      (Storage_workload.Workload.unique_bytes design.Design.workload
         schedule.Schedule.full.Schedule.accumulation)
  | Technique.Backup _ | Technique.Vaulting _ -> (
    match kind with
    | K_full -> Demands.full_size design.Design.workload
    | K_incr k -> Demands.incremental_size design.Design.workload s ~index:k)

let in_outage st level =
  match st.outage_level with
  | Some l when l = level -> st.now >= st.outage_start
  | Some _ | None -> false

(* The flow-net nodes a transfer between two devices occupies: both
   endpoints (or one node twice for an intra-device copy), plus the link
   if it is bandwidth-constrained. *)
let hop_through nodes ~src_dev ~dst_dev ~link =
  let node name = Hashtbl.find_opt nodes name in
  let src = node src_dev and dst = node dst_dev in
  let link_node =
    match link with
    | Some (l : Interconnect.t) -> node l.Interconnect.name
    | None -> None
  in
  let through =
    match (src, dst) with
    | Some a, Some b when Flow_net.node_name a = Flow_net.node_name b ->
      [ (a, 2) ]
    | Some a, Some b -> [ (a, 1); (b, 1) ]
    | Some a, None -> [ (a, 1) ]
    | None, Some b -> [ (b, 1) ]
    | None, None -> []
  in
  match link_node with Some n -> (n, 1) :: through | None -> through

let handle_capture st ~level ~kind =
  let s = Option.get st.levels.(level).sched in
  (* Re-arm the next cycle when the full fires. *)
  (if kind = K_full then
     let cycle_start =
       st.now -. secs s.Schedule.full.Schedule.accumulation
     in
     schedule_cycle st level
       ~cycle_start:(cycle_start +. secs (Schedule.cycle_period s)));
  let capture =
    if level = 1 then Some st.now
    else
      match newest st (level - 1) with
      | Some rp -> Some rp.capture_time
      | None -> None
  in
  match capture with
  | None ->
    if st.verbose then
      Log.debug (fun m ->
          m "t=%.0f: level %d capture skipped (nothing upstream)" st.now level)
  | Some _ when in_outage st level || not (st.capture_gate level) ->
    if st.verbose then
      Log.debug (fun m ->
          m "t=%.0f: level %d capture suppressed (outage)" st.now level)
  | Some capture ->
    let w = kind_windows s kind in
    let technique = (Hierarchy.level st.hierarchy level).Hierarchy.technique in
    let size = Size.to_bytes (rp_transfer_size st.design technique s kind) in
    Event_queue.push st.queue
      ~time:(st.now +. secs w.Schedule.hold)
      (Transfer_start
         { level; capture; size; prop = secs w.Schedule.propagation })

let handle_transfer_start st ~level ~capture ~size ~prop =
  if in_outage st level || not (st.capture_gate level) then ignore capture
  else
    match (Hierarchy.level st.hierarchy level).Hierarchy.link with
    | Some ({ Interconnect.transport = Interconnect.Shipment; _ } as link) ->
      Event_queue.push st.queue
        ~time:(st.now +. secs link.Interconnect.delay)
        (Shipment_arrive { level; capture })
    | Some _ | None ->
      let through = st.routes.(level) in
      if size <= 0. || through = [] then store_rp st level capture
      else begin
        let rate_cap = if prop > 0. then size /. prop else infinity in
        let flow = Flow_net.add_flow st.net ~rate_cap ~through ~bytes:size () in
        record st "level %d starts a %.0f MiB propagation" level
          (size /. (1024. *. 1024.));
        st.inflight <- (flow, (level, capture)) :: st.inflight
      end

let handle_event st = function
  | Capture { level; kind } -> handle_capture st ~level ~kind
  | Transfer_start { level; capture; size; prop } ->
    handle_transfer_start st ~level ~capture ~size ~prop
  | Shipment_arrive { level; capture } -> store_rp st level capture
  | Recovery_step { rid } -> st.on_recovery (`Step rid)
  | Recovery_xfer { rid } -> st.on_recovery (`Xfer rid)

let rec complete_flows st = function
  | [] -> ()
  | flow :: rest ->
    (match List.assq_opt flow st.inflight with
    | Some (level, capture) ->
      st.inflight <- List.remove_assq flow st.inflight;
      store_rp st level capture
    | None -> (
      match List.assq_opt flow st.rec_inflight with
      | Some rid ->
        st.rec_inflight <- List.remove_assq flow st.rec_inflight;
        st.on_recovery (`Done rid)
      | None -> ()));
    complete_flows st rest

(* Advance the interleaved discrete events and flow completions up to
   [until]. Each iteration advances the flows to the next instant, then
   handles the whole batch of events due by then, in order; an event a
   handler schedules for that same instant waits for the next iteration
   (a zero-length advance). Apart from boxing the clock and the step, the
   loop allocates nothing. *)
let run_until st until =
  while st.now < until do
    let flow_dt = Flow_net.next_completion st.net in
    let next_time =
      Float.min
        (Float.min until (Event_queue.peek_time st.queue))
        (st.now +. flow_dt)
    in
    let dt = Float.max 0. (next_time -. st.now) in
    (* A nearly-complete flow whose remaining time is below the ulp of the
       clock (multi-year virtual times have ulps of tens of nanoseconds)
       yields [next_time = st.now]: advancing by the rounded dt would move
       zero bytes and the loop would never progress. Advance the net by the
       flow's own sub-resolution dt instead — virtual time itself cannot
       (and need not) move. *)
    let dt = if dt = 0. && st.now +. flow_dt = st.now then flow_dt else dt in
    let completed = Flow_net.advance st.net dt in
    Storage_obs.Counter.incr obs_flow_advances;
    st.now <- next_time;
    complete_flows st completed;
    Event_queue.drain_until st.queue st.now st.batch;
    for i = 0 to Event_queue.batch_length st.batch - 1 do
      Storage_obs.Counter.incr obs_events;
      handle_event st (Event_queue.batch_get st.batch i)
    done
  done

let build design =
  let hierarchy = design.Design.hierarchy in
  let n = Hierarchy.length hierarchy in
  let net, nodes, reservations = build_network design hierarchy in
  let levels =
    Array.init n (fun j ->
        let sched =
          Technique.schedule (Hierarchy.level hierarchy j).Hierarchy.technique
        in
        let keep =
          match sched with
          | None -> 1
          | Some s ->
            s.Schedule.retention_count * (1 + s.Schedule.cycle_count)
        in
        { sched; store = ref []; keep })
  in
  (* Both the hierarchy and the network are fixed for the run, so each
     level's propagation route is too. *)
  let routes =
    Array.init n (fun j ->
        if j = 0 then []
        else
          let up = Hierarchy.level hierarchy (j - 1)
          and l = Hierarchy.level hierarchy j in
          hop_through nodes ~src_dev:up.Hierarchy.device.Device.name
            ~dst_dev:l.Hierarchy.device.Device.name ~link:l.Hierarchy.link)
  in
  let st =
    {
      design;
      hierarchy;
      levels;
      queue = Event_queue.create ();
      net;
      nodes;
      routes;
      batch = Event_queue.batch ();
      inflight = [];
      now = 0.;
      verbose = false;
      outage_level = None;
      outage_start = infinity;
      reservations;
      record = false;
      events = [];
      available_at = Hashtbl.create 4;
      capture_gate = (fun _ -> true);
      rec_inflight = [];
      on_recovery = ignore;
    }
  in
  (* Align each level's cycle so that its captures land just after the
     upstream level's arrivals (the way operators schedule backup windows
     after the split and vault pickups after the backup). Without this,
     phase misalignment adds up to one upstream accumulation window of
     extra staleness per level — real, and exposed by sweep_failure_phase,
     but not what the paper's composed worst case describes. *)
  for j = 1 to n - 1 do
    let phase =
      if j = 1 then 0.
      else secs (Hierarchy.best_lag hierarchy (j - 1)) +. (60. *. float_of_int (j - 1))
    in
    schedule_cycle st j ~cycle_start:phase
  done;
  st

(* --- failure handling and executed recovery --- *)

let destroyed_devices st scope =
  List.filter
    (fun (d : Device.t) ->
      Location.destroys scope ~device_name:d.Device.name d.Device.location)
    (Design.devices st.design)

let apply_failure st scope =
  let destroyed = destroyed_devices st scope in
  let is_dead name =
    List.exists (fun (d : Device.t) -> String.equal d.Device.name name) destroyed
  in
  (* Record when each destroyed device's spare comes online (read only by
     the multi-failure executor; [run] never consults it). *)
  List.iter
    (fun (d : Device.t) ->
      let avail =
        match Spare.provisioning_time (Device.spare_for d ~scope) with
        | Some p -> st.now +. secs p
        | None -> infinity
      in
      Hashtbl.replace st.available_at d.Device.name avail)
    destroyed;
  (* RPs stored on destroyed devices are gone, and in-flight transfers to or
     from them abort. *)
  Array.iteri
    (fun j ls ->
      let dev = (Hierarchy.level st.hierarchy j).Hierarchy.device in
      if is_dead dev.Device.name then ls.store := [])
    st.levels;
  List.iter
    (fun (flow, (level, _)) ->
      let l = Hierarchy.level st.hierarchy level in
      let upstream_dev =
        (Hierarchy.level st.hierarchy (level - 1)).Hierarchy.device
      in
      if is_dead l.Hierarchy.device.Device.name
         || is_dead upstream_dev.Device.name
      then begin
        Flow_net.cancel st.net flow;
        st.inflight <- List.remove_assq flow st.inflight
      end)
    st.inflight

let choose_source_at st ~scope ~target ~target_now =
  let survivors = Hierarchy.surviving_levels st.hierarchy ~scope in
  let primary_intact = List.mem 0 survivors in
  if primary_intact && target_now then `No_recovery_needed
  else begin
    let candidates =
      List.filter_map
        (fun j ->
          if j = 0 then None
          else
            (* The newest RP not newer than the target. *)
            List.find_opt (fun rp -> rp.capture_time <= target)
              !(st.levels.(j).store)
            |> Option.map (fun rp -> (j, target -. rp.capture_time)))
        survivors
    in
    match candidates with
    | [] -> `Total_loss
    | (j0, l0) :: rest ->
      let j, loss =
        List.fold_left
          (fun (bj, bl) (j, l) -> if l < bl then (j, l) else (bj, bl))
          (j0, l0) rest
      in
      `Recover_from (j, loss)
  end

let choose_source st scenario =
  choose_source_at st ~scope:scenario.Scenario.scope
    ~target:(st.now -. secs scenario.Scenario.target_age)
    ~target_now:(Duration.is_zero scenario.Scenario.target_age)

(* Strict recovery execution: a hop's transfer starts only after the data
   has arrived at the source side AND the receiving device is provisioned
   (the analytical model lets provisioning overlap the transfer; see
   Recovery_time). *)
let execute_recovery st scenario ~source =
  let scope = scenario.Scenario.scope in
  let recovery_size =
    match scenario.Scenario.object_size with
    | Some s -> s
    | None ->
      Demands.recovery_size ~workload:st.design.Design.workload
        (Hierarchy.level st.hierarchy source).Hierarchy.technique
  in
  let provisioned_at (d : Device.t) =
    if Location.destroys scope ~device_name:d.Device.name d.Device.location
    then
      match Spare.provisioning_time (Device.spare_for d ~scope) with
      | Some p -> Some (st.now +. secs p)
      | None -> None
    else Some st.now
  in
  let path = Recovery_time.recovery_path st.hierarchy ~source in
  let rec hops rt = function
    | a :: (b :: _ as rest) -> (
      let la = Hierarchy.level st.hierarchy a
      and lb = Hierarchy.level st.hierarchy b in
      match provisioned_at lb.Hierarchy.device with
      | None -> None
      | Some prov -> (
        let link = la.Hierarchy.link in
        let transit =
          match link with
          | Some l -> secs l.Interconnect.delay
          | None -> 0.
        in
        let is_shipment =
          match link with
          | Some { Interconnect.transport = Interconnect.Shipment; _ } -> true
          | Some _ | None -> false
        in
        let arrival = rt +. transit in
        let start = Float.max arrival prov in
        if is_shipment then hops start rest
        else begin
          let through =
            hop_through st.nodes ~src_dev:la.Hierarchy.device.Device.name
              ~dst_dev:lb.Hierarchy.device.Device.name ~link
          in
          let ser_fix = secs la.Hierarchy.device.Device.access_delay in
          let begin_xfer = start +. ser_fix in
          if through = [] || Size.is_zero recovery_size then
            hops begin_xfer rest
          else begin
            let flow =
              Flow_net.add_flow st.net ~through
                ~bytes:(Size.to_bytes recovery_size)
                ()
            in
            (* Priced at the rate the flow gets on arrival, frozen. *)
            let xfer =
              let r = Flow_net.rate st.net flow in
              if r > 0. then Flow_net.remaining st.net flow /. r else nan
            in
            Flow_net.cancel st.net flow;
            if Float.is_nan xfer then None else hops (begin_xfer +. xfer) rest
          end
        end))
    | [ _ ] | [] -> Some rt
  in
  hops st.now path

let measure_rp_stats st =
  let n = Array.length st.levels in
  let count = Array.make n 0 in
  let newest_age = Array.make n None in
  let oldest_age = Array.make n None in
  Array.iteri
    (fun j ls ->
      let rps = !(ls.store) in
      count.(j) <- List.length rps;
      (match rps with
      | head :: _ ->
        newest_age.(j) <-
          Some (Duration.seconds (Float.max 0. (st.now -. head.capture_time)))
      | [] -> ());
      match List.rev rps with
      | last :: _ ->
        oldest_age.(j) <-
          Some (Duration.seconds (Float.max 0. (st.now -. last.capture_time)))
      | [] -> ())
    st.levels;
  (count, newest_age, oldest_age)

let measure_utilization st =
  let elapsed = st.now in
  if elapsed <= 0. then []
  else
    Hashtbl.fold
      (fun name node acc ->
        match List.assoc_opt name st.reservations with
        | None -> acc (* link node *)
        | Some reserved ->
          let device =
            List.find
              (fun (d : Device.t) -> String.equal d.Device.name name)
              (Design.devices st.design)
          in
          let capacity = Rate.to_bytes_per_sec (Device.max_bandwidth device) in
          let used =
            (reserved *. elapsed) +. Flow_net.node_bytes st.net node
          in
          (name, used /. (capacity *. elapsed)) :: acc)
      st.nodes []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let run ?(config = default_config) design scenario =
  Storage_obs.Counter.incr obs_runs;
  Storage_obs.Timer.time t_sim_run @@ fun () ->
  let st =
    { (build design) with verbose = config.log; record = config.record_events }
  in
  (match config.outage with
  | Some (level, duration) ->
    if level <= 0 || level >= Hierarchy.length st.hierarchy then
      invalid_arg "Sim.run: outage level out of range";
    st.outage_level <- Some level;
    st.outage_start <-
      Float.max 0. (secs config.warmup -. secs duration)
  | None -> ());
  run_until st (secs config.warmup);
  st.now <- secs config.warmup;
  let bandwidth_utilization = measure_utilization st in
  let rp_count, rp_newest_age, rp_oldest_age = measure_rp_stats st in
  let failure_time = Duration.seconds st.now in
  record st "FAILURE: %s" (Location.scope_name scenario.Scenario.scope);
  apply_failure st scenario.Scenario.scope;
  let source_level, data_loss, recovery_time =
    match choose_source st scenario with
    | `No_recovery_needed ->
      (Some 0, Data_loss.Updates Duration.zero, Some Duration.zero)
    | `Total_loss -> (None, Data_loss.Entire_object, None)
    | `Recover_from (j, loss) -> (
      record st "recovery source: level %d (loss %.0f s)" j loss;
      let loss = Data_loss.Updates (Duration.seconds loss) in
      match execute_recovery st scenario ~source:j with
      | Some finish ->
        record st "recovery complete %.0f s after the failure"
          (finish -. st.now);
        (Some j, loss, Some (Duration.seconds (finish -. st.now)))
      | None -> (Some j, loss, None))
  in
  {
    failure_time;
    source_level;
    data_loss;
    recovery_time;
    rp_count;
    rp_newest_age;
    rp_oldest_age;
    bandwidth_utilization;
    timeline =
      List.rev_map (fun (t, m) -> (Duration.seconds t, m)) st.events;
  }

(* --- multi-failure execution -------------------------------------- *)

type injected = {
  event : Scenario.event;
  injected_at : Duration.t;
  source_level : int option;
  data_loss : Data_loss.loss;
  recovery_end : Duration.t option;
  replans : int;
}

type multi = {
  injected : injected list;
  horizon : Duration.t;
  bandwidth_utilization : (string * float) list;
  timeline : (Duration.t * string) list;
}

let obs_multi_runs = Storage_obs.Counter.make "sim.multi_runs"
let obs_replans = Storage_obs.Counter.make "sim.recovery_replans"
let t_sim_run_events = Storage_obs.Timer.make "sim.run_events"

(* Per-failure bookkeeping that survives replanning: the [slot] is the
   stable record for one injected event; [recovery] records are the
   (possibly re-planned) executions attached to it. A slot absorbed by a
   later primary-destroying failure resolves its recovery end through the
   absorbing slot. *)
type slot = {
  s_event : Scenario.event;
  s_at : float;  (* absolute injection time *)
  s_primary_down : bool;
  mutable s_source_level : int option;
  mutable s_loss : Data_loss.loss;
  mutable s_end : float option;
  mutable s_replans : int;
  mutable s_absorbed_into : slot option;
}

type recovery = {
  rid : int;
  slot : slot;
  size : Size.t;
  mutable path : int list;  (* remaining levels; data is staged at the head *)
  mutable flow : Flow_net.flow option;
  mutable dead : bool;  (* finished, failed, replanned or absorbed *)
}

(* Executes a scenario's full event set in virtual time: each failure is
   injected at its offset past the warmup, and its recovery runs as real
   flows in the event loop — contending with RP propagation and with the
   other recoveries, re-planned (or absorbed by a newer primary failure)
   when a later event destroys a device it depends on. Recoveries still
   unfinished when the horizon closes report no recovery end.

   Unlike [run], whose recovery is priced synchronously at frozen
   post-failure rates, this executor lets virtual time advance, so a
   single-event scenario measures a (generally different) live-bandwidth
   recovery time; the degenerate reduction to [run] is the caller's
   choice (see Storage_fleet). *)
let run_events ?(config = default_config) ?horizon design scenario =
  Storage_obs.Counter.incr obs_multi_runs;
  Storage_obs.Timer.time t_sim_run_events @@ fun () ->
  let events = Scenario.events scenario in
  let last_at =
    List.fold_left
      (fun acc (e : Scenario.event) -> Float.max acc (secs e.Scenario.at))
      0. events
  in
  let horizon =
    match horizon with
    | Some h -> secs h
    | None -> last_at +. secs (Duration.weeks 12.)
  in
  if horizon < last_at then
    invalid_arg "Sim.run_events: horizon before the last failure event";
  let st =
    { (build design) with verbose = config.log; record = config.record_events }
  in
  (match config.outage with
  | Some (level, duration) ->
    if level <= 0 || level >= Hierarchy.length st.hierarchy then
      invalid_arg "Sim.run_events: outage level out of range";
    st.outage_level <- Some level;
    st.outage_start <- Float.max 0. (secs config.warmup -. secs duration)
  | None -> ());
  let warmup = secs config.warmup in
  let primary_dev =
    (Hierarchy.level st.hierarchy 0).Hierarchy.device.Device.name
  in
  let device_of j =
    (Hierarchy.level st.hierarchy j).Hierarchy.device.Device.name
  in
  let device_ready name =
    match Hashtbl.find_opt st.available_at name with
    | Some t -> st.now >= t
    | None -> true
  in
  (* Outstanding conditions invalidating the primary's data: one per
     un-recovered primary-destroying failure. While non-zero, level-1
     captures (and their propagations) have nothing real to capture. *)
  let primary_invalid = ref 0 in
  st.capture_gate <-
    (fun level ->
      let upstream_ok =
        if level = 1 then device_ready primary_dev && !primary_invalid = 0
        else device_ready (device_of (level - 1))
      in
      upstream_ok && device_ready (device_of level));
  let recoveries : (int, recovery) Hashtbl.t = Hashtbl.create 8 in
  let next_rid = ref 0 in
  let finish_recovery r =
    r.dead <- true;
    r.slot.s_end <- Some st.now;
    if r.slot.s_primary_down then decr primary_invalid;
    record st "recovery %d complete %.0f s after its failure" r.rid
      (st.now -. r.slot.s_at)
  in
  let fail_recovery r =
    r.dead <- true;
    record st "recovery %d cannot proceed (no provisionable device)" r.rid
  in
  (* Plan the next hop for [r], whose data is staged at the head of its
     remaining path at the current instant. *)
  let step r =
    match r.path with
    | a :: b :: _ ->
      let la = Hierarchy.level st.hierarchy a
      and lb = Hierarchy.level st.hierarchy b in
      let prov =
        match Hashtbl.find_opt st.available_at lb.Hierarchy.device.Device.name
        with
        | Some t -> t
        | None -> st.now
      in
      if prov = infinity then fail_recovery r
      else begin
        let link = la.Hierarchy.link in
        let transit =
          match link with
          | Some l -> secs l.Interconnect.delay
          | None -> 0.
        in
        let is_shipment =
          match link with
          | Some { Interconnect.transport = Interconnect.Shipment; _ } -> true
          | Some _ | None -> false
        in
        let arrival = st.now +. transit in
        let start = Float.max arrival prov in
        if is_shipment then begin
          r.path <- List.tl r.path;
          Event_queue.push st.queue ~time:start (Recovery_step { rid = r.rid })
        end
        else begin
          let through =
            hop_through st.nodes ~src_dev:la.Hierarchy.device.Device.name
              ~dst_dev:lb.Hierarchy.device.Device.name ~link
          in
          let ser_fix = secs la.Hierarchy.device.Device.access_delay in
          let begin_xfer = start +. ser_fix in
          if through = [] || Size.is_zero r.size then begin
            r.path <- List.tl r.path;
            Event_queue.push st.queue ~time:begin_xfer
              (Recovery_step { rid = r.rid })
          end
          else
            Event_queue.push st.queue ~time:begin_xfer
              (Recovery_xfer { rid = r.rid })
        end
      end
    | [ _ ] | [] -> finish_recovery r
  in
  let start_xfer r =
    match r.path with
    | a :: b :: _ ->
      let la = Hierarchy.level st.hierarchy a
      and lb = Hierarchy.level st.hierarchy b in
      let through =
        hop_through st.nodes ~src_dev:la.Hierarchy.device.Device.name
          ~dst_dev:lb.Hierarchy.device.Device.name ~link:la.Hierarchy.link
      in
      if through = [] then begin
        r.path <- List.tl r.path;
        step r
      end
      else begin
        let flow =
          Flow_net.add_flow st.net ~through ~bytes:(Size.to_bytes r.size) ()
        in
        r.flow <- Some flow;
        st.rec_inflight <- (flow, r.rid) :: st.rec_inflight
      end
    | [ _ ] | [] -> finish_recovery r
  in
  st.on_recovery <-
    (fun signal ->
      let with_rec rid f =
        match Hashtbl.find_opt recoveries rid with
        | Some r when not r.dead -> f r
        | Some _ | None -> ()
      in
      match signal with
      | `Step rid -> with_rec rid step
      | `Xfer rid -> with_rec rid start_xfer
      | `Done rid ->
        with_rec rid (fun r ->
            r.flow <- None;
            r.path <- List.tl r.path;
            step r));
  let spawn_recovery slot ~source =
    let size =
      match slot.s_event.Scenario.object_size with
      | Some s -> s
      | None ->
        Demands.recovery_size ~workload:st.design.Design.workload
          (Hierarchy.level st.hierarchy source).Hierarchy.technique
    in
    incr next_rid;
    let r =
      {
        rid = !next_rid;
        slot;
        size;
        path = Recovery_time.recovery_path st.hierarchy ~source;
        flow = None;
        dead = false;
      }
    in
    Hashtbl.replace recoveries r.rid r;
    step r;
    r
  in
  let cancel_recovery_flow r =
    match r.flow with
    | Some flow ->
      Flow_net.cancel st.net flow;
      st.rec_inflight <- List.remove_assq flow st.rec_inflight;
      r.flow <- None
    | None -> ()
  in
  let choose slot ~target_now =
    choose_source_at st ~scope:slot.s_event.Scenario.scope
      ~target:(slot.s_at -. secs slot.s_event.Scenario.target_age)
      ~target_now
  in
  let replan r =
    cancel_recovery_flow r;
    r.dead <- true;
    let slot = r.slot in
    slot.s_replans <- slot.s_replans + 1;
    Storage_obs.Counter.incr obs_replans;
    record st "recovery %d re-planned by a later failure" r.rid;
    match choose slot ~target_now:false with
    | `No_recovery_needed | `Total_loss ->
      slot.s_source_level <- None;
      slot.s_loss <- Data_loss.Entire_object
    | `Recover_from (j, loss) ->
      slot.s_source_level <- Some j;
      slot.s_loss <- Data_loss.Updates (Duration.seconds loss);
      ignore (spawn_recovery slot ~source:j)
  in
  let absorb r ~into =
    cancel_recovery_flow r;
    r.dead <- true;
    if r.slot.s_primary_down then decr primary_invalid;
    r.slot.s_absorbed_into <- Some into
  in
  (* Warm up, then inject each event at its offset, re-planning the
     recoveries the new failure invalidates. *)
  run_until st warmup;
  st.now <- warmup;
  let slots =
    List.map
      (fun (ev : Scenario.event) ->
        let t_fail = warmup +. secs ev.Scenario.at in
        run_until st t_fail;
        st.now <- Float.max st.now t_fail;
        record st "FAILURE: %s" (Location.scope_name ev.Scenario.scope);
        let destroyed = destroyed_devices st ev.Scenario.scope in
        let primary_down =
          List.exists
            (fun (d : Device.t) -> String.equal d.Device.name primary_dev)
            destroyed
        in
        apply_failure st ev.Scenario.scope;
        if primary_down then incr primary_invalid;
        let slot =
          {
            s_event = ev;
            s_at = t_fail;
            s_primary_down = primary_down;
            s_source_level = None;
            s_loss = Data_loss.Entire_object;
            s_end = None;
            s_replans = 0;
            s_absorbed_into = None;
          }
        in
        let is_dead name =
          List.exists
            (fun (d : Device.t) -> String.equal d.Device.name name)
            destroyed
        in
        let live =
          Hashtbl.fold
            (fun _ r acc -> if r.dead then acc else r :: acc)
            recoveries []
          |> List.sort (fun a b -> compare a.rid b.rid)
        in
        List.iter
          (fun r ->
            if primary_down then absorb r ~into:slot
            else if List.exists (fun j -> is_dead (device_of j)) r.path then
              replan r)
          live;
        (match
           choose slot
             ~target_now:(Duration.is_zero ev.Scenario.target_age)
         with
        | `No_recovery_needed ->
          slot.s_source_level <- Some 0;
          slot.s_loss <- Data_loss.Updates Duration.zero;
          slot.s_end <- Some t_fail
        | `Total_loss ->
          slot.s_source_level <- None;
          slot.s_loss <- Data_loss.Entire_object
        | `Recover_from (j, loss) ->
          record st "recovery source: level %d (loss %.0f s)" j loss;
          slot.s_source_level <- Some j;
          slot.s_loss <- Data_loss.Updates (Duration.seconds loss);
          ignore (spawn_recovery slot ~source:j));
        slot)
      events
  in
  run_until st (warmup +. horizon);
  (* An absorbed slot's outage ends when the absorbing slot's recovery
     does (chains always point at later events, so this terminates). *)
  let rec resolved_end slot =
    match slot.s_absorbed_into with
    | Some into -> resolved_end into
    | None -> slot.s_end
  in
  {
    injected =
      List.map
        (fun slot ->
          {
            event = slot.s_event;
            injected_at = Duration.seconds slot.s_at;
            source_level = slot.s_source_level;
            data_loss = slot.s_loss;
            recovery_end =
              Option.map Duration.seconds (resolved_end slot);
            replans = slot.s_replans;
          })
        slots;
    horizon = Duration.seconds horizon;
    bandwidth_utilization = measure_utilization st;
    timeline = List.rev_map (fun (t, m) -> (Duration.seconds t, m)) st.events;
  }

(* Each offset is an independent simulation over its own state, so the
   sweep parallelizes trivially; results stay in offset order. *)
let offset_run ~config design scenario offset =
  let config = { config with warmup = Duration.add config.warmup offset } in
  run ~config design scenario

let sweep_failure_phase ?engine ?(config = default_config) design scenario
    ~offsets =
  match engine with
  | None -> List.map (offset_run ~config design scenario) offsets
  | Some e ->
    Storage_engine.map e (offset_run ~config design scenario) offsets
