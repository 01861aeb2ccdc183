open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model
module Diagnostic = Diagnostic

let err = Diagnostic.make
let near_full_threshold = 0.9

(* --- rule registry (kept in sync with the checks below; the test suite
   asserts every code here has a fixture and every emitted code is
   registered) --- *)

let rules : (string * Diagnostic.severity * string) list =
  [
    ("SSDEP-E010", Error, "device capacity overcommitted");
    ("SSDEP-E011", Error, "device bandwidth overcommitted");
    ("SSDEP-E012", Error, "technique requires an interconnect");
    ( "SSDEP-E013",
      Error,
      "link bandwidth below the technique's required rate" );
    ("SSDEP-E014", Error, "negative or non-finite workload parameter");
    ("SSDEP-E015", Error, "negative or non-finite cost term");
    ( "SSDEP-E016",
      Error,
      "destroyed device on the recovery path has no applicable spare" );
    ("SSDEP-E017", Error, "no bandwidth available on the recovery path");
    ( "SSDEP-E018",
      Error,
      "interconnect oversubscribed by aggregate propagation demand" );
    ("SSDEP-W001", Warning, "device capacity nearly full");
    ("SSDEP-W002", Warning, "device bandwidth nearly saturated");
    ( "SSDEP-W003",
      Warning,
      "asynchronous mirror link below the peak (burst) update rate" );
    ( "SSDEP-W004",
      Warning,
      "batch update rate exceeds the raw average update rate" );
    ("SSDEP-W005", Warning, "zero update rate under protection levels");
    ("SSDEP-W006", Warning, "scenario destroys every protection level");
    ( "SSDEP-W007",
      Warning,
      "no surviving level guarantees the scenario's target age" );
    ( "SSDEP-I001",
      Info,
      "hold window exceeds the previous level's retention window" );
    ("SSDEP-I002", Info, "retention too shallow to guarantee any RP range");
  ]

(* --- design-wide static rules --- *)

let level_loc j (l : Hierarchy.level) =
  Diagnostic.Level { index = j; technique = Technique.name l.technique }

let finite f = Float.is_finite f
let nonneg_finite f = Float.is_finite f && f >= 0.

let check_workload (w : Workload.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let bad ~what v =
    add
      (err ~code:"SSDEP-E014" Error Workload
         "%s is negative or non-finite (%g)" what v)
  in
  let cap = Size.to_bytes w.Workload.data_capacity in
  if not (finite cap && cap > 0.) then bad ~what:"data capacity" cap;
  let acc = Rate.to_bytes_per_sec w.Workload.avg_access_rate in
  if not (nonneg_finite acc) then bad ~what:"average access rate" acc;
  let upd = Rate.to_bytes_per_sec w.Workload.avg_update_rate in
  if not (nonneg_finite upd) then bad ~what:"average update rate" upd;
  if not (finite w.Workload.burst_multiplier && w.Workload.burst_multiplier >= 1.)
  then bad ~what:"burst multiplier" w.Workload.burst_multiplier;
  List.iter
    (fun (_, r) ->
      let r = Rate.to_bytes_per_sec r in
      if not (nonneg_finite r) then bad ~what:"batch update rate" r)
    (Batch_curve.samples w.Workload.batch_curve);
  (* Trace/batch-curve consistency: the unique update rate can never
     exceed the raw update rate the trace generator was parameterized
     with — overwrites only coalesce writes, they cannot invent them. *)
  (match
     List.find_opt
       (fun (_, r) -> Rate.compare r w.Workload.avg_update_rate > 0)
       (Batch_curve.samples w.Workload.batch_curve)
   with
  | Some (win, r) ->
    add
      (err ~code:"SSDEP-W004" Warning Workload
         "batch update rate %s over a %s window exceeds the raw average \
          update rate %s: inconsistent trace parameters"
         (Rate.to_string r) (Duration.to_string win)
         (Rate.to_string w.Workload.avg_update_rate))
  | None -> ());
  List.rev !ds

let check_cost_model loc ~owner (c : Cost_model.t) =
  let ds = ref [] in
  let bad ~what v =
    ds :=
      err ~code:"SSDEP-E015" Error loc "%s %s is negative or non-finite (%g)"
        owner what v
      :: !ds
  in
  let fixed = Money.to_usd c.Cost_model.fixed in
  if not (nonneg_finite fixed) then bad ~what:"fixed cost" fixed;
  if not (nonneg_finite c.Cost_model.per_gib) then
    bad ~what:"per-GiB cost" c.Cost_model.per_gib;
  if not (nonneg_finite c.Cost_model.per_mib_per_sec) then
    bad ~what:"per-MiB/s cost" c.Cost_model.per_mib_per_sec;
  if not (nonneg_finite c.Cost_model.per_shipment) then
    bad ~what:"per-shipment cost" c.Cost_model.per_shipment;
  List.rev !ds

let design_links (d : Design.t) =
  List.fold_left
    (fun acc (l : Hierarchy.level) ->
      match l.link with
      | Some link
        when not
               (List.exists
                  (fun (k : Interconnect.t) ->
                    String.equal k.Interconnect.name link.Interconnect.name)
                  acc) ->
        link :: acc
      | Some _ | None -> acc)
    []
    (Hierarchy.levels d.Design.hierarchy)
  |> List.rev

let check_design (d : Design.t) =
  let ds = ref [] in
  let add x = ds := x :: !ds in
  let h = d.Design.hierarchy in
  (* Devices: §3.3.1's global overcommitment check, plus a near-full
     advisory band below it. *)
  List.iter
    (fun (dev : Device.t) ->
      let u = Design.device_utilization d dev in
      let loc = Diagnostic.Device dev.Device.name in
      if u.Device.capacity_fraction > 1. then
        add
          (err ~code:"SSDEP-E010" Error loc
             "capacity overcommitted: %.1f%% of %s (%d slots needed, %d \
              available)"
             (100. *. u.Device.capacity_fraction)
             (Size.to_string (Device.max_capacity dev))
             u.Device.capacity_slots_needed dev.Device.max_capacity_slots)
      else if u.Device.capacity_fraction > near_full_threshold then
        add
          (err ~code:"SSDEP-W001" Warning loc
             "capacity %.1f%% full: little headroom for growth or extra \
              retention"
             (100. *. u.Device.capacity_fraction));
      if u.Device.bandwidth_fraction > 1. then
        add
          (err ~code:"SSDEP-E011" Error loc
             "bandwidth overcommitted: %.1f%% of %s"
             (100. *. u.Device.bandwidth_fraction)
             (Rate.to_string (Device.max_bandwidth dev)))
      else if u.Device.bandwidth_fraction > near_full_threshold then
        add
          (err ~code:"SSDEP-W002" Warning loc
             "bandwidth %.1f%% saturated: recovery transfers will crawl"
             (100. *. u.Device.bandwidth_fraction)))
    (Design.devices d);
  (* Per-level interconnect requirements (§3.3.1: a synchronous mirror
     link must sustain the peak rate, asynchronous modes the average). *)
  List.iteri
    (fun j (l : Hierarchy.level) ->
      let required =
        Demands.required_link_bandwidth ~workload:d.Design.workload
          l.technique
      in
      if not (Rate.is_zero required) then begin
        match l.link with
        | None ->
          add
            (err ~code:"SSDEP-E012" Error (level_loc j l)
               "%s requires an interconnect and none is configured"
               (Technique.name l.technique))
        | Some link -> (
          match Interconnect.bandwidth link with
          | Some bw when Rate.compare bw required < 0 ->
            add
              (err ~code:"SSDEP-E013" Error (Link link.Interconnect.name)
                 "bandwidth %s cannot sustain %s traffic (%s required)"
                 (Rate.to_string bw)
                 (Technique.name l.technique)
                 (Rate.to_string required))
          | Some bw -> (
            (* The link keeps up on average; warn when workload bursts
               exceed it, so asynchronous mirrors will queue behind
               [burstM * avgUpdateR] spikes. *)
            match l.technique with
            | Technique.Remote_mirror
                { mode = Technique.Asynchronous | Technique.Asynchronous_batch;
                  _ } ->
              let peak = Workload.peak_update_rate d.Design.workload in
              if Rate.compare bw peak < 0 then
                add
                  (err ~code:"SSDEP-W003" Warning
                     (Link link.Interconnect.name)
                     "bandwidth %s is below the peak (burst) update rate \
                      %s: asynchronous propagation will lag during bursts"
                     (Rate.to_string bw) (Rate.to_string peak))
            | _ -> ())
          | None -> ())
      end)
    (Hierarchy.levels h);
  (* Aggregate oversubscription per interconnect: several levels may share
     one link; the sum of their sustained propagation demands must fit. *)
  List.iter
    (fun (link : Interconnect.t) ->
      match Interconnect.bandwidth link with
      | None -> ()
      | Some bw ->
        let demand = Design.link_demand d link in
        if Rate.compare demand bw > 0 then
          add
            (err ~code:"SSDEP-E018" Error (Link link.Interconnect.name)
               "aggregate propagation demand %s exceeds link bandwidth %s"
               (Rate.to_string demand) (Rate.to_string bw)))
    (design_links d);
  (* Workload parameter sanity. *)
  List.iter add (check_workload d.Design.workload);
  if
    Rate.is_zero d.Design.workload.Workload.avg_update_rate
    && Hierarchy.length h > 1
  then
    add
      (err ~code:"SSDEP-W005" Warning Workload
         "update rate is zero, yet %d protection level(s) are configured \
          to capture updates"
         (Hierarchy.length h - 1));
  (* Cost terms. *)
  List.iter
    (fun (dev : Device.t) ->
      List.iter add
        (check_cost_model
           (Diagnostic.Device dev.Device.name)
           ~owner:"device" dev.Device.cost))
    (Design.devices d);
  List.iter
    (fun (link : Interconnect.t) ->
      List.iter add
        (check_cost_model
           (Diagnostic.Link link.Interconnect.name)
           ~owner:"link" link.Interconnect.cost))
    (design_links d);
  let b = d.Design.business in
  List.iter
    (fun (what, rate) ->
      let v = Money_rate.to_usd_per_hour rate in
      if not (nonneg_finite v) then
        add
          (err ~code:"SSDEP-E015" Error Business
             "business %s is negative or non-finite (%g)" what v))
    [
      ("outage penalty rate", b.Business.outage_penalty_rate);
      ("loss penalty rate", b.Business.loss_penalty_rate);
    ];
  (* Advisories: the paper's convention 3 (§3.2.1) and guaranteed-range
     shallowness (§3.3.2, Figure 3). *)
  List.iter
    (fun j ->
      let l = Hierarchy.level h j in
      add
        (err ~code:"SSDEP-I001" Info (level_loc j l)
           "hold window exceeds level %d's retention window: extra \
            retention capacity is required at level %d (§3.2.1 convention \
            3)"
           (j - 1) (j - 1)))
    (Hierarchy.hold_retention_inversions h);
  for j = 1 to Hierarchy.length h - 1 do
    if Design.guaranteed_range d j = None then
      add
        (err ~code:"SSDEP-I002" Info (level_loc j (Hierarchy.level h j))
           "retention is too shallow to guarantee any retrieval-point \
            range (Figure 3)")
  done;
  List.rev !ds

(* --- per-scenario rules --- *)

let check_scenario (d : Design.t) (name, (sc : Scenario.t)) =
  let ds = ref [] in
  let add x = ds := x :: !ds in
  let loc = Diagnostic.Scenario name in
  let dl = Data_loss.compute d sc in
  (match (dl.Data_loss.loss, dl.Data_loss.candidates) with
  | Data_loss.Entire_object, [] ->
    add
      (err ~code:"SSDEP-W006" Warning loc
         "no protection level survives scope %s as a recovery source: the \
          object cannot be recovered"
         (Location.scope_name sc.Scenario.scope))
  | Data_loss.Entire_object, _ :: _ ->
    add
      (err ~code:"SSDEP-W007" Warning loc
         "no surviving level guarantees a retrieval point of age %s: the \
          target predates all retained RPs"
         (Duration.to_string sc.Scenario.target_age))
  | Data_loss.Updates _, _ -> ());
  (match dl.Data_loss.source_level with
  | Some source_level when source_level > 0 ->
    (* Spare-pool adequacy along the recovery path: every receiving
       device destroyed by the scope needs a spare that covers the scope
       (the remote spare for building/site/region failures). Mirrors
       [Recovery_time]'s provisioning step. *)
    let scope = sc.Scenario.scope in
    let path =
      Recovery_time.recovery_path d.Design.hierarchy ~source:source_level
    in
    let receiving = match path with [] -> [] | _ :: tl -> tl in
    let missing_spare = ref false in
    List.iter
      (fun j ->
        let dev = (Hierarchy.level d.Design.hierarchy j).Hierarchy.device in
        if
          Location.destroys scope ~device_name:dev.Device.name
            dev.Device.location
          && Spare.provisioning_time (Device.spare_for dev ~scope) = None
        then begin
          missing_spare := true;
          add
            (err ~code:"SSDEP-E016" Error loc
               "device %s is destroyed and has no spare covering this \
                scope: recovery cannot provision a replacement"
               dev.Device.name)
        end)
      (List.sort_uniq Int.compare receiving);
    if not !missing_spare then begin
      (* The only other static failure of the recovery timeline is a hop
         with zero available bandwidth; reuse the timeline computation so
         the check can never drift from the evaluator. *)
      match Recovery_time.compute d sc ~source_level with
      | Ok _ -> ()
      | Error e -> add (err ~code:"SSDEP-E017" Error loc "%s" e)
    end
  | Some _ | None -> ());
  List.rev !ds

(* --- entry points --- *)

let check ?(scenarios = []) d =
  check_design d @ List.concat_map (check_scenario d) scenarios
  |> List.sort_uniq Diagnostic.compare

let errors ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds

let warnings ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Warning) ds

let infos ds =
  List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Info) ds

(* [accepts] is [errors (check_design d) = []] computed without building
   a single diagnostic — it runs once per candidate as the search
   pre-filter, where the [ksprintf] message formatting of [check_design]
   would dominate the test itself. The static errors of [check_design]
   decompose exactly into
   - E010/E011/E012/E013/E018, which are [Design.validate] (memoized per
     design) reporting the same conditions over the same device and link
     sets, and
   - the finiteness screens: E014 over the workload and E015 over every
     device and link cost model and the business penalty rates,
   so testing those three pieces is testing membership in the error set.
   The test suite pins the equivalence against the diagnostic-building
   definition on both clean and corrupted designs. *)

let workload_finite (w : Workload.t) =
  let cap = Size.to_bytes w.Workload.data_capacity in
  finite cap && cap > 0.
  && nonneg_finite (Rate.to_bytes_per_sec w.Workload.avg_access_rate)
  && nonneg_finite (Rate.to_bytes_per_sec w.Workload.avg_update_rate)
  && finite w.Workload.burst_multiplier
  && w.Workload.burst_multiplier >= 1.
  && List.for_all
       (fun (_, r) -> nonneg_finite (Rate.to_bytes_per_sec r))
       (Batch_curve.samples w.Workload.batch_curve)

let cost_model_finite (c : Cost_model.t) =
  nonneg_finite (Money.to_usd c.Cost_model.fixed)
  && nonneg_finite c.Cost_model.per_gib
  && nonneg_finite c.Cost_model.per_mib_per_sec
  && nonneg_finite c.Cost_model.per_shipment

let accepts d =
  (match Design.validate d with Ok () -> true | Error _ -> false)
  && workload_finite d.Design.workload
  && List.for_all
       (fun (dev : Device.t) -> cost_model_finite dev.Device.cost)
       (Design.devices d)
  && List.for_all
       (fun (link : Interconnect.t) -> cost_model_finite link.Interconnect.cost)
       (design_links d)
  && nonneg_finite
       (Money_rate.to_usd_per_hour d.Design.business.Business.outage_penalty_rate)
  && nonneg_finite
       (Money_rate.to_usd_per_hour d.Design.business.Business.loss_penalty_rate)

let obs_pruned = Storage_obs.Counter.make "lint.pruned"

let prune candidates =
  let kept = List.filter accepts candidates in
  Storage_obs.Counter.add obs_pruned
    (List.length candidates - List.length kept);
  kept

let exit_code ?(deny_warnings = false) ds =
  if errors ds <> [] then 2
  else if deny_warnings && warnings ds <> [] then 1
  else 0

let pp_summary ppf ds =
  Fmt.pf ppf "%d error(s), %d warning(s), %d info(s)"
    (List.length (errors ds))
    (List.length (warnings ds))
    (List.length (infos ds))

let pp ppf ds =
  match ds with
  | [] -> Fmt.pf ppf "clean: %a" pp_summary ds
  | _ ->
    Fmt.pf ppf "@[<v>%a@,%a@]"
      (Fmt.list ~sep:Fmt.cut Diagnostic.pp)
      ds pp_summary ds

let to_json ~design ds =
  Storage_report.Json.Obj
    [
      ("design", Storage_report.Json.String design);
      ( "diagnostics",
        Storage_report.Json.List (List.map Diagnostic.to_json ds) );
      ("errors", Storage_report.Json.Int (List.length (errors ds)));
      ("warnings", Storage_report.Json.Int (List.length (warnings ds)));
      ("infos", Storage_report.Json.Int (List.length (infos ds)));
    ]
