open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy

let add = Buffer.add_string
let addf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let level_name design j =
  Technique.name (Hierarchy.level design.Design.hierarchy j).Hierarchy.technique

let survivors_section buf design scenario =
  let h = design.Design.hierarchy in
  let scope = scenario.Scenario.scope in
  addf buf "Failure scope: %s.\n" (Location.scope_name scope);
  if Location.corrupts_object scope then
    add buf
      "The object's current contents are corrupt, so the primary copy \
       cannot serve the recovery.\n";
  List.iteri
    (fun j (l : Hierarchy.level) ->
      let destroyed =
        Location.destroys scope ~device_name:l.Hierarchy.device.Device.name
          l.Hierarchy.device.Device.location
      in
      if destroyed then
        addf buf "  level %d (%s on %s): destroyed.\n" j (level_name design j)
          l.Hierarchy.device.Device.name)
    (Hierarchy.levels h);
  let survivors = Hierarchy.surviving_levels h ~scope in
  addf buf "Surviving levels: %s.\n\n"
    (String.concat ", "
       (List.map
          (fun j -> Printf.sprintf "%d (%s)" j (level_name design j))
          survivors))

let candidates_section buf design scenario (dl : Data_loss.t) =
  let h = design.Design.hierarchy in
  let age = scenario.Scenario.target_age in
  addf buf "Recovery target: now - %s.\n" (Duration.to_string age);
  List.iter
    (fun (j, loss) ->
      let range =
        match Hierarchy.guaranteed_range h j with
        | Some r ->
          Printf.sprintf "guarantees RPs aged %s to %s"
            (Duration.to_string (Age_range.newest_age r))
            (Duration.to_string (Age_range.oldest_age r))
        | None -> "guarantees no rollback range (retention too shallow)"
      in
      let verdict =
        match loss with
        | Data_loss.Updates d ->
          Printf.sprintf "would lose %s of updates" (Duration.to_string d)
        | Data_loss.Entire_object -> "cannot serve this target"
      in
      addf buf "  level %d (%s): %s; %s.\n" j (level_name design j) range
        verdict)
    dl.Data_loss.candidates;
  (match (dl.Data_loss.source_level, dl.Data_loss.loss) with
  | Some 0, _ | None, Data_loss.Updates _ ->
    add buf "The primary copy is intact: no recovery is needed.\n"
  | Some j, Data_loss.Updates d ->
    addf buf
      "=> level %d (%s) has the closest retrieval point: worst-case loss %s.\n"
      j (level_name design j) (Duration.to_string d)
  | Some _, Data_loss.Entire_object | None, Data_loss.Entire_object ->
    add buf
      "=> no surviving level retains a usable retrieval point: the object \
       is lost.\n");
  add buf "\n"

let recovery_section buf design (t : Recovery_time.timeline) =
  addf buf "Recovery: restore %s from level %d (%s).\n"
    (Size.to_string t.Recovery_time.recovery_size)
    t.Recovery_time.source_level
    (level_name design t.Recovery_time.source_level);
  List.iter
    (fun (hop : Recovery_time.hop) ->
      let from_dev =
        (Hierarchy.level design.Design.hierarchy hop.Recovery_time.from_level)
          .Hierarchy.device.Device.name
      and to_dev =
        (Hierarchy.level design.Design.hierarchy hop.Recovery_time.to_level)
          .Hierarchy.device.Device.name
      in
      addf buf "  %s -> %s:" from_dev to_dev;
      if not (Duration.is_zero hop.Recovery_time.transit) then
        addf buf " media in transit %s;"
          (Duration.to_string hop.Recovery_time.transit);
      if not (Duration.is_zero hop.Recovery_time.par_fix) then
        addf buf " provisioning the receiver takes %s (in parallel);"
          (Duration.to_string hop.Recovery_time.par_fix);
      if not (Duration.is_zero hop.Recovery_time.ser_fix) then
        addf buf " media load/seek %s;"
          (Duration.to_string hop.Recovery_time.ser_fix);
      (match hop.Recovery_time.transfer_rate with
      | Some rate ->
        addf buf " transfer %s at %s;"
          (Duration.to_string hop.Recovery_time.transfer)
          (Rate.to_string rate)
      | None -> ());
      addf buf " ready %s after the failure.\n"
        (Duration.to_string hop.Recovery_time.ready_at);
      (* Name what actually bound the hop: provisioning only when the hop
         finished exactly when provisioning did (it runs in parallel with
         everything else). *)
      let provisioning_bound =
        (* Relative tolerance: day-scale recoveries have float ulps larger
           than any fixed absolute epsilon, which would misattribute the
           bottleneck. *)
        let a = Duration.to_seconds hop.Recovery_time.ready_at
        and b = Duration.to_seconds hop.Recovery_time.par_fix in
        Float.abs (a -. b) <= 1e-9 *. Float.max 1. (Float.max a b)
      in
      let dominant =
        if provisioning_bound then
          ("receiver provisioning", hop.Recovery_time.par_fix)
        else
          List.fold_left
            (fun (bn, bv) (n, v) -> if Duration.compare v bv > 0 then (n, v) else (bn, bv))
            ("", Duration.zero)
            [
              ("media transit", hop.Recovery_time.transit);
              ("data transfer", hop.Recovery_time.transfer);
              ("media load", hop.Recovery_time.ser_fix);
            ]
      in
      if Duration.compare (snd dominant) Duration.zero > 0 then
        addf buf "    bottleneck: %s.\n" (fst dominant))
    t.Recovery_time.hops;
  addf buf "Total recovery time: %s.\n\n"
    (Duration.to_string t.Recovery_time.total)

let cost_section buf design (dl : Data_loss.t) recovery_time =
  let business = design.Design.business in
  let penalties =
    Cost.penalties business ~recovery_time ~loss:dl.Data_loss.loss
  in
  addf buf
    "Penalties: %s outage + %s recent-data-loss = %s; annual outlays %s.\n"
    (Money.to_string penalties.Cost.outage)
    (Money.to_string penalties.Cost.loss)
    (Money.to_string penalties.Cost.total)
    (Money.to_string (Cost.total design))

let narrative design scenario =
  let buf = Buffer.create 1024 in
  addf buf "=== %s under %s ===\n\n" design.Design.name
    (Location.scope_name scenario.Scenario.scope);
  survivors_section buf design scenario;
  let dl = Data_loss.compute design scenario in
  candidates_section buf design scenario dl;
  let recovery_time =
    match dl.Data_loss.source_level with
    | Some level when level > 0 -> (
      match Recovery_time.compute design scenario ~source_level:level with
      | Ok t ->
        recovery_section buf design t;
        t.Recovery_time.total
      | Error e ->
        addf buf "Recovery impossible: %s.\n\n" e;
        Duration.zero)
    | _ -> Duration.zero
  in
  cost_section buf design dl recovery_time;
  Buffer.contents buf
