open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model

type config = {
  warmup : Duration.t;
  outage : (int * Duration.t) option;
  record_events : bool;
}

let default_config =
  { warmup = Duration.weeks 12.; outage = None; record_events = false }

(* A warmup simulates every retrieval point its levels create, so its cost
   grows with the intervals it spans at the most frequent level: the
   10-link async mirror's 840-day warmup (~1.2M one-minute intervals)
   takes under a second, 10^7 intervals a few seconds, and a 1e303-day
   warmup would never finish. *)
let max_warmup_intervals = 1e7

(* Each sweep run is a whole simulation, warmup included: at the default
   12-week warmup one run of the 10-link async mirror takes about 60 ms,
   so 10^3 runs take about a minute. *)
let max_sweep_runs = 1_000

let shortest_rp_interval design =
  let _, shortest =
    List.fold_left
      (fun (level, shortest) (l : Hierarchy.level) ->
        let shortest =
          match Technique.schedule l.Hierarchy.technique with
          | None -> shortest
          | Some s ->
            let interval = Schedule.rp_interval_min s in
            (match shortest with
            | Some (_, best) when Duration.compare best interval <= 0 ->
              shortest
            | _ -> Some (level, interval))
        in
        (level + 1, shortest))
      (0, None)
      (Hierarchy.levels design.Design.hierarchy)
  in
  shortest

type measured = {
  source_level : int option;
  data_loss : Data_loss.loss;
  recovery_time : Duration.t option;
  rp_count : int array;
  rp_newest_age : Duration.t option array;
  bandwidth_utilization : (string * float) list;
  timeline : (Duration.t * string) list;
}

type rp = { capture_time : float }
type kind = K_full | K_incr of int

(* Per-failure bookkeeping of [run_events] that survives re-planning: the
   [slot] is the stable record for one injected event; [recovery] records
   are the (possibly re-planned) executions attached to it. A slot absorbed
   by a later primary-destroying failure resolves its recovery end through
   the absorbing slot. *)
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
  slot : slot;
  size : Size.t;
  mutable path : int list;  (* remaining levels; data is staged at the head *)
  mutable flow : Flow_net.flow option;
  mutable dead : bool;  (* finished, failed, replanned or absorbed *)
}

(* The flow-net nodes a transfer occupies, each with its multiplicity. *)
type route = (Flow_net.node * int) list

type event =
  | Capture of { level : int; kind : kind }
  | Transfer_start of {
      level : int;
      capture : float;
      size : float;
      prop : float;
    }
  | Shipment_arrive of { level : int; capture : float }
  | Recovery_step of recovery
      (* the recovering data is staged at the head of the recovery's
         remaining path; plan the next hop *)
  | Recovery_xfer of recovery * route
      (* the next hop's transfer may begin (source staged, receiver
         provisioned); add the flow over the planned route *)

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
  routes : route array;  (* level j -> the route of a propagation into j *)
  batch : event Event_queue.batch;  (* the events due at [now] *)
  mutable inflight : (Flow_net.flow * (int * float)) list;
  mutable now : float;
  outage_level : int option;
  outage_start : float;
  reservations : (string * float) list;  (* device name -> reserved B/s *)
  record : bool;
  mutable events : (float * string) list;  (* newest first *)
  (* Failure state. [available_at] maps a destroyed device to the absolute
     time its spare is provisioned (infinity: no applicable spare); absent
     means the device was never destroyed. The rest is [run_events]' live
     execution: the recoveries spawned, newest first (dead ones are dropped
     at the next injection), the flows of those transferring, and the
     count of un-recovered primary-destroying failures — while non-zero,
     level-1 captures (and their propagations) have nothing real to
     capture. *)
  available_at : (string, float) Hashtbl.t;
  mutable recoveries : recovery list;
  mutable rec_inflight : (Flow_net.flow * recovery) list;
  mutable primary_invalid : int;
}

let secs = Duration.to_seconds

(* Simulator throughput metrics (no-ops until stats are enabled): discrete
   events handled, flow-network advances, and whole runs. *)
let obs_runs = Storage_obs.Counter.make "sim.runs"
let obs_events = Storage_obs.Counter.make "sim.events"
let obs_flow_advances = Storage_obs.Counter.make "sim.flow_advances"
let t_sim_run = Storage_obs.Timer.make "sim.run"
let obs_multi_runs = Storage_obs.Counter.make "sim.multi_runs"
let obs_replans = Storage_obs.Counter.make "sim.recovery_replans"
let t_sim_run_events = Storage_obs.Timer.make "sim.run_events"

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
  record st "level %d stores RP captured %.0f s ago" level (st.now -. capture)

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

let device_of st j = (Hierarchy.level st.hierarchy j).Hierarchy.device.Device.name

(* Whether [level] may capture and propagate now: its technique is not
   out, its device and the upstream one are up (a destroyed device is down
   until its spare is provisioned) and, for level 1, the primary's data is
   valid. [available_at] is empty until the first failure, so normal
   operation pays one length test and hashes no device name. *)
let gate_open st level =
  (not (in_outage st level))
  && (Hashtbl.length st.available_at = 0
     ||
     let ready j =
       match Hashtbl.find_opt st.available_at (device_of st j) with
       | Some t -> st.now >= t
       | None -> true
     in
     ready (level - 1) && (level > 1 || st.primary_invalid = 0) && ready level)

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
  | Some capture when gate_open st level ->
    let w = kind_windows s kind in
    let technique = (Hierarchy.level st.hierarchy level).Hierarchy.technique in
    let size = Size.to_bytes (rp_transfer_size st.design technique s kind) in
    Event_queue.push st.queue
      ~time:(st.now +. secs w.Schedule.hold)
      (Transfer_start
         { level; capture; size; prop = secs w.Schedule.propagation })
  | Some _ | None -> ()

let handle_transfer_start st ~level ~capture ~size ~prop =
  if gate_open st level then
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

(* --- recovery hops ---

   Recovery is executed strictly: a hop's transfer starts only after the
   data has arrived at the source side AND the receiving device is
   provisioned (the analytical model lets provisioning overlap the
   transfer; see Recovery_time). Both entry points plan each hop with
   [plan_hop]; they differ only in how a transfer is priced — [run] at the
   rate of the failure instant, frozen, [run_events] as a live flow. *)

(* A hop's plan: the receiver has no spare; the data is at the receiver
   at [t] (shipped, or nothing to move); or a transfer starts at [t] over
   the route. *)
type hop = Unprovisionable | Staged of float | Transfer of float * route

(* The hop from level [a], where the recovering data is staged at [at], to
   level [b]. *)
let plan_hop st ~size ~at a b =
  let la = Hierarchy.level st.hierarchy a in
  let prov =
    match Hashtbl.find_opt st.available_at (device_of st b) with
    | Some t -> t
    | None -> st.now
  in
  if prov = infinity then Unprovisionable
  else
    let link = la.Hierarchy.link in
    let transit =
      match link with Some l -> secs l.Interconnect.delay | None -> 0.
    in
    let start = Float.max (at +. transit) prov in
    match link with
    | Some { Interconnect.transport = Interconnect.Shipment; _ } -> Staged start
    | Some _ | None ->
      let through =
        hop_through st.nodes ~src_dev:(device_of st a)
          ~dst_dev:(device_of st b) ~link
      in
      let begin_xfer = start +. secs la.Hierarchy.device.Device.access_delay in
      if through = [] || Size.is_zero size then Staged begin_xfer
      else Transfer (begin_xfer, through)

(* The live step of [r], whose data is staged at the head of its remaining
   path now: schedule its next hop, or finish. *)
let step st r =
  match r.path with
  | a :: (b :: _ as rest) -> (
    match plan_hop st ~size:r.size ~at:st.now a b with
    | Unprovisionable -> r.dead <- true
    | Staged t ->
      r.path <- rest;
      Event_queue.push st.queue ~time:t (Recovery_step r)
    | Transfer (t, through) ->
      Event_queue.push st.queue ~time:t (Recovery_xfer (r, through)))
  | [ _ ] | [] ->
    r.dead <- true;
    r.slot.s_end <- Some st.now;
    if r.slot.s_primary_down then st.primary_invalid <- st.primary_invalid - 1

let handle_event st = function
  | Capture { level; kind } -> handle_capture st ~level ~kind
  | Transfer_start { level; capture; size; prop } ->
    handle_transfer_start st ~level ~capture ~size ~prop
  | Shipment_arrive { level; capture } -> store_rp st level capture
  | Recovery_step r -> if not r.dead then step st r
  | Recovery_xfer (r, through) ->
    if not r.dead then begin
      let flow =
        Flow_net.add_flow st.net ~through ~bytes:(Size.to_bytes r.size) ()
      in
      r.flow <- Some flow;
      st.rec_inflight <- (flow, r) :: st.rec_inflight
    end

let rec complete_flows st = function
  | [] -> ()
  | flow :: rest ->
    (match List.assq_opt flow st.inflight with
    | Some (level, capture) ->
      st.inflight <- List.remove_assq flow st.inflight;
      store_rp st level capture
    | None -> (
      match List.assq_opt flow st.rec_inflight with
      | Some r ->
        st.rec_inflight <- List.remove_assq flow st.rec_inflight;
        r.flow <- None;
        r.path <- List.tl r.path;
        step st r
      | None -> ()));
    complete_flows st rest

(* One step of the event loop: advance the flows to the next instant,
   then handle the whole batch of events due by then, in order; an event a
   handler schedules for that same instant waits for the next tick (a
   zero-length advance). Apart from boxing the clock and the step, a tick
   allocates nothing. *)
let tick st until =
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

(* Advance the interleaved discrete events and flow completions up to
   [until]. *)
let run_until st until = while st.now < until do tick st until done

(* The state at time zero both entry points share, with the timeline
   switch and the technique outage from [config] and each level's first
   cycle scheduled. *)
let set_up ~config design =
  let hierarchy = design.Design.hierarchy in
  let n = Hierarchy.length hierarchy in
  let warmup = secs config.warmup in
  let outage_level, outage_start =
    match config.outage with
    | Some (level, duration) ->
      if level <= 0 || level >= n then
        invalid_arg "Sim: outage level out of range";
      (Some level, Float.max 0. (warmup -. secs duration))
    | None -> (None, infinity)
  in
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
      outage_level;
      outage_start;
      reservations;
      record = config.record_events;
      events = [];
      available_at = Hashtbl.create 4;
      recoveries = [];
      rec_inflight = [];
      primary_invalid = 0;
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

(* --- recorded warm-ups ---

   A kept state is what normal operation mutates, at a tick boundary: the
   clock, the queue, the flow network, the propagations in flight and each
   level's RPs (immutable lists, so shared). Resuming at warmup [w]
   restores the last kept state whose clock is strictly below [w] and
   ticks on to [w]. That repeats a from-scratch run exactly: a tick that
   ended before [w] is one a run stopping at [w] takes too, because the
   [until] term of its step did not bind. A state kept at or after the
   recording's own [until] could come from a tick that [until] clipped, so
   none is kept there. *)
type snapshot = {
  k_clock : float;
  k_queue : event Event_queue.t;
  k_net : Flow_net.t;
  k_inflight : (Flow_net.flow * (int * float)) list;
  k_stores : rp list array;
}

type warm = {
  base : state;  (* the set-up state; never ticked *)
  snapshots : snapshot array;  (* ascending clocks, the set-up's first *)
}

(* [st]'s mutable parts, shared with it: [st] must not tick again. *)
let freeze st =
  {
    k_clock = st.now;
    k_queue = st.queue;
    k_net = st.net;
    k_inflight = st.inflight;
    k_stores = Array.map (fun ls -> !(ls.store)) st.levels;
  }

(* [snap] over its own queue and flow network. *)
let copy_snapshot snap =
  let net, flow_of = Flow_net.copy snap.k_net in
  {
    snap with
    k_queue = Event_queue.copy snap.k_queue;
    k_net = net;
    k_inflight = List.map (fun (flow, p) -> (flow_of flow, p)) snap.k_inflight;
  }

(* A fresh state at [snap] over [base]'s fixed parts; neither is
   modified, so domains may thaw one recording at once. *)
let thaw base snap =
  let snap = copy_snapshot snap in
  {
    base with
    levels =
      Array.map2 (fun ls store -> { ls with store = ref store }) base.levels
        snap.k_stores;
    queue = snap.k_queue;
    net = snap.k_net;
    batch = Event_queue.batch ();
    inflight = snap.k_inflight;
    now = snap.k_clock;
    events = [];
    available_at = Hashtbl.create 4;
    recoveries = [];
    rec_inflight = [];
    primary_invalid = 0;
  }

(* The state a from-scratch run has after [warmup] of normal operation. *)
let resume w ~warmup =
  let rec last i =
    if i > 0 && not (w.snapshots.(i).k_clock < warmup) then last (i - 1)
    else i
  in
  let st = thaw w.base w.snapshots.(last (Array.length w.snapshots - 1)) in
  run_until st warmup;
  st.now <- warmup;
  st

(* The most states a recording keeps, the set-up one included: one per
   1/64 of its span. On perfbench's fleet_tape, 64 ran as fast as 256 and
   faster than keeping every tick, with less peak memory than either
   (DESIGN.md has the measurements). *)
let snapshot_cap = 64

let warm design ~until =
  let until = secs until in
  if not (Float.is_finite until) then invalid_arg "Sim.warm: non-finite until";
  let base = set_up ~config:default_config design in
  let setup = freeze base in
  let st = thaw base setup in
  let instant k = until *. float_of_int k /. float_of_int snapshot_cap in
  let kept = ref [ setup ] and next = ref 1 in
  while st.now < until do
    tick st until;
    if !next < snapshot_cap && st.now < until && st.now >= instant !next
    then begin
      kept := copy_snapshot (freeze st) :: !kept;
      while !next < snapshot_cap && st.now >= instant !next do
        incr next
      done
    end
  done;
  { base; snapshots = Array.of_list (List.rev !kept) }

let warm_clocks w =
  Array.to_list
    (Array.map (fun snap -> Duration.seconds snap.k_clock) w.snapshots)

(* The set-up both entry points share: [config]'s state after its warmup,
   resumed from [warm] or from a recording that holds only the set-up. *)
let start ?warm ~config design =
  let warmup = secs config.warmup in
  match warm with
  | None ->
    let base = set_up ~config design in
    resume { base; snapshots = [| freeze base |] } ~warmup
  | Some w ->
    if Option.is_some config.outage || config.record_events then
      invalid_arg "Sim: ?warm with an outage or a recorded timeline";
    if not (w.base.design == design) then
      invalid_arg "Sim: ?warm recorded for another design";
    resume w ~warmup

(* --- failure injection ---

   A failure of [scope] at [st.now]: RPs stored on the destroyed devices
   are gone, in-flight propagations to or from them abort, and each one's
   spare comes online after its provisioning time (never, without an
   applicable spare). Returns the destroyed device names. *)
let inject st scope =
  record st "FAILURE: %s" (Location.scope_name scope);
  let destroyed =
    List.filter_map
      (fun (d : Device.t) ->
        if Location.destroys scope ~device_name:d.Device.name d.Device.location
        then begin
          Hashtbl.replace st.available_at d.Device.name
            (match Spare.provisioning_time (Device.spare_for d ~scope) with
            | Some p -> st.now +. secs p
            | None -> infinity);
          Some d.Device.name
        end
        else None)
      (Design.devices st.design)
  in
  let dead j = List.mem (device_of st j) destroyed in
  Array.iteri (fun j ls -> if dead j then ls.store := []) st.levels;
  st.inflight <-
    List.filter
      (fun (flow, (level, _)) ->
        let aborted = dead level || dead (level - 1) in
        if aborted then Flow_net.cancel st.net flow;
        not aborted)
      st.inflight;
  destroyed

(* The source for a failure of [scope] at [at] that must restore the data
   as of [target_age] before it, as (source level, data loss): level 0
   when the primary survives and the target is now, else the surviving
   level with the freshest RP not newer than the target, recorded on the
   timeline; [None] when no level has one. *)
let choose_source st ~scope ~target_age ~at =
  let survivors = Hierarchy.surviving_levels st.hierarchy ~scope in
  if List.mem 0 survivors && Duration.is_zero target_age then
    (Some 0, Data_loss.Updates Duration.zero)
  else begin
    let target = at -. secs target_age in
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
    | [] -> (None, Data_loss.Entire_object)
    | best :: rest ->
      let j, loss =
        List.fold_left
          (fun (bj, bl) (j, l) -> if l < bl then (j, l) else (bj, bl))
          best rest
      in
      record st "recovery source: level %d (loss %.0f s)" j loss;
      (Some j, Data_loss.Updates (Duration.seconds loss))
  end

let recovery_size st ~object_size ~source =
  match object_size with
  | Some s -> s
  | None ->
    Demands.recovery_size ~workload:st.design.Design.workload
      (Hierarchy.level st.hierarchy source).Hierarchy.technique

(* --- single failure, frozen pricing --- *)

(* Walks the recovery path at once, pricing each transfer at the rate a
   flow gets on arrival, frozen. The finish time, or [None] when a
   receiver cannot be provisioned or a transfer gets no bandwidth. *)
let price_frozen st ~size path =
  let rec hops at = function
    | a :: (b :: _ as rest) -> (
      match plan_hop st ~size ~at a b with
      | Unprovisionable -> None
      | Staged t -> hops t rest
      | Transfer (t, through) ->
        let flow =
          Flow_net.add_flow st.net ~through ~bytes:(Size.to_bytes size) ()
        in
        let xfer =
          let r = Flow_net.rate st.net flow in
          if r > 0. then Flow_net.remaining st.net flow /. r else nan
        in
        Flow_net.cancel st.net flow;
        if Float.is_nan xfer then None else hops (t +. xfer) rest)
    | [ _ ] | [] -> Some at
  in
  hops st.now path

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

let run ?warm ?(config = default_config) design scenario =
  Storage_obs.Counter.incr obs_runs;
  Storage_obs.Timer.time t_sim_run @@ fun () ->
  let st = start ?warm ~config design in
  let bandwidth_utilization = measure_utilization st in
  let rp_count = Array.map (fun ls -> List.length !(ls.store)) st.levels in
  let rp_newest_age =
    Array.map
      (fun ls ->
        match !(ls.store) with
        | head :: _ ->
          Some (Duration.seconds (Float.max 0. (st.now -. head.capture_time)))
        | [] -> None)
      st.levels
  in
  ignore (inject st scenario.Scenario.scope);
  let source_level, data_loss =
    choose_source st ~scope:scenario.Scenario.scope
      ~target_age:scenario.Scenario.target_age ~at:st.now
  in
  let recovery_time =
    match source_level with
    | None -> None
    | Some 0 -> Some Duration.zero
    | Some j ->
      let size =
        recovery_size st ~object_size:scenario.Scenario.object_size ~source:j
      in
      price_frozen st ~size (Recovery_time.recovery_path st.hierarchy ~source:j)
      |> Option.map (fun finish ->
             record st "recovery complete %.0f s after the failure"
               (finish -. st.now);
             Duration.seconds (finish -. st.now))
  in
  {
    source_level;
    data_loss;
    recovery_time;
    rp_count;
    rp_newest_age;
    bandwidth_utilization;
    timeline =
      List.rev_map (fun (t, m) -> (Duration.seconds t, m)) st.events;
  }

(* --- failure sequences, live pricing --- *)

type injected = {
  injected_at : Duration.t;
  source_level : int option;
  data_loss : Data_loss.loss;
  recovery_end : Duration.t option;
  replans : int;
}

(* Chooses [slot]'s source now and starts its live recovery. *)
let recover_slot st slot =
  let ev = slot.s_event in
  let source, loss =
    choose_source st ~scope:ev.Scenario.scope
      ~target_age:ev.Scenario.target_age ~at:slot.s_at
  in
  slot.s_source_level <- source;
  slot.s_loss <- loss;
  match source with
  | None -> ()
  | Some 0 -> slot.s_end <- Some slot.s_at
  | Some j ->
    let r =
      {
        slot;
        size =
          recovery_size st ~object_size:ev.Scenario.object_size ~source:j;
        path = Recovery_time.recovery_path st.hierarchy ~source:j;
        flow = None;
        dead = false;
      }
    in
    st.recoveries <- r :: st.recoveries;
    step st r

let stop_recovery st r =
  (match r.flow with
  | Some flow ->
    Flow_net.cancel st.net flow;
    st.rec_inflight <- List.remove_assq flow st.rec_inflight
  | None -> ());
  r.dead <- true

(* Executes a scenario's full event set in virtual time: each failure is
   injected at its offset past the warmup, and its recovery runs as real
   flows in the event loop — contending with RP propagation and with the
   other recoveries. A later failure that destroys a device a recovery
   depends on re-plans it from a freshly chosen source, one that destroys
   the primary absorbs it. Recoveries still unfinished when the horizon
   closes report no recovery end. *)
let run_events ?warm ?(config = default_config) ?horizon design scenario =
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
  let st = start ?warm ~config design in
  let warmup = secs config.warmup in
  let slots =
    List.map
      (fun (ev : Scenario.event) ->
        let t_fail = warmup +. secs ev.Scenario.at in
        run_until st t_fail;
        st.now <- Float.max st.now t_fail;
        let destroyed = inject st ev.Scenario.scope in
        let primary_down = List.mem (device_of st 0) destroyed in
        if primary_down then st.primary_invalid <- st.primary_invalid + 1;
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
        st.recoveries <- List.filter (fun r -> not r.dead) st.recoveries;
        (* Oldest first; the recoveries re-planning spawns are not
           revisited. *)
        List.iter
          (fun r ->
            if primary_down then begin
              stop_recovery st r;
              if r.slot.s_primary_down then
                st.primary_invalid <- st.primary_invalid - 1;
              r.slot.s_absorbed_into <- Some slot
            end
            else if
              List.exists (fun j -> List.mem (device_of st j) destroyed) r.path
            then begin
              stop_recovery st r;
              r.slot.s_replans <- r.slot.s_replans + 1;
              Storage_obs.Counter.incr obs_replans;
              recover_slot st r.slot
            end)
          (List.rev st.recoveries);
        recover_slot st slot;
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
  List.map
    (fun slot ->
      {
        injected_at = Duration.seconds slot.s_at;
        source_level = slot.s_source_level;
        data_loss = slot.s_loss;
        recovery_end = Option.map Duration.seconds (resolved_end slot);
        replans = slot.s_replans;
      })
    slots

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
