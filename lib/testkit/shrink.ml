(* Greedy shrinking of counterexample designs.

   Candidates are proposed most-aggressive first (drop a whole hierarchy
   level, halve the workload) down to local simplifications (halve a
   retention count, flatten the batch curve). Every candidate is rebuilt
   through Hierarchy.make / Workload.make, so a shrunk design is always
   structurally well-formed — shrinking moves toward smaller designs, not
   toward differently-broken ones. *)

open Storage_units
open Storage_workload
open Storage_protection
open Storage_hierarchy
open Storage_model

let schedule_of = function
  | Technique.Primary_copy _ -> None
  | Technique.Split_mirror s
  | Technique.Virtual_snapshot s
  | Technique.Backup s
  | Technique.Vaulting s
  | Technique.Remote_mirror { schedule = s; _ }
  | Technique.Erasure_coded { schedule = s; _ } ->
    Some s

let with_schedule technique s =
  match technique with
  | Technique.Primary_copy _ -> None
  | Technique.Split_mirror _ -> Some (Technique.Split_mirror s)
  | Technique.Virtual_snapshot _ -> Some (Technique.Virtual_snapshot s)
  | Technique.Backup _ -> Some (Technique.Backup s)
  | Technique.Vaulting _ -> Some (Technique.Vaulting s)
  | Technique.Remote_mirror { mode; _ } ->
    Some (Technique.Remote_mirror { mode; schedule = s })
  | Technique.Erasure_coded { fragments; required; _ } ->
    Some (Technique.Erasure_coded { fragments; required; schedule = s })

let remake_schedule (s : Schedule.t) ~full ~retention_count =
  match
    (match s.Schedule.secondary with
    | None -> Schedule.make ~full ~retention_count ()
    | Some secondary ->
      Schedule.make ~full ~secondary ~cycle_count:s.Schedule.cycle_count
        ~retention_count ())
  with
  | s' -> Some s'
  | exception Invalid_argument _ -> None

let rebuild (d : Design.t) ?workload levels =
  match Hierarchy.make levels with
  | Error _ -> None
  | Ok hierarchy ->
    Some
      (Design.make ~name:d.Design.name
         ~workload:(Option.value ~default:d.Design.workload workload)
         ~hierarchy ~business:d.Design.business ())

let with_workload (d : Design.t) w =
  Design.make ~name:d.Design.name ~workload:w ~hierarchy:d.Design.hierarchy
    ~business:d.Design.business ()

let map_level d i f =
  let levels = Hierarchy.levels d.Design.hierarchy in
  match f (List.nth levels i) with
  | None -> None
  | Some level ->
    rebuild d (List.mapi (fun j l -> if j = i then level else l) levels)

let drop_levels d =
  let levels = Hierarchy.levels d.Design.hierarchy in
  let n = List.length levels in
  if n <= 1 then []
  else
    (* Deepest level first: losing the vault is a smaller change than
       losing the PiT copies every deeper level builds on. *)
    List.filter_map
      (fun i -> rebuild d (List.filteri (fun j _ -> j <> i) levels))
      (List.init (n - 1) (fun k -> n - 1 - k))

let halve_workload d =
  let w = d.Design.workload in
  if Size.to_gib w.Workload.data_capacity <= 2. then []
  else [ with_workload d (Workload.grow w ~factor:0.5) ]

let collapse_burst d =
  let w = d.Design.workload in
  if w.Workload.burst_multiplier <= 1. then []
  else
    [
      with_workload d
        (Workload.make ~name:w.Workload.name
           ~data_capacity:w.Workload.data_capacity
           ~avg_access_rate:w.Workload.avg_access_rate
           ~avg_update_rate:w.Workload.avg_update_rate ~burst_multiplier:1.
           ~batch_curve:w.Workload.batch_curve);
    ]

let collapse_batch d =
  let w = d.Design.workload in
  match Batch_curve.samples w.Workload.batch_curve with
  | [] | [ _ ] -> []
  | (_, top) :: _ ->
    [
      with_workload d
        (Workload.make ~name:w.Workload.name
           ~data_capacity:w.Workload.data_capacity
           ~avg_access_rate:w.Workload.avg_access_rate
           ~avg_update_rate:w.Workload.avg_update_rate
           ~burst_multiplier:w.Workload.burst_multiplier
           ~batch_curve:(Batch_curve.constant top));
    ]

let halve_retentions d =
  let levels = Hierarchy.levels d.Design.hierarchy in
  List.filter_map
    (fun i ->
      map_level d i (fun level ->
          match schedule_of level.Hierarchy.technique with
          | None -> None
          | Some s ->
            let rc = s.Schedule.retention_count in
            if rc <= 1 then None
            else begin
              match
                remake_schedule s ~full:s.Schedule.full
                  ~retention_count:(max 1 (rc / 2))
              with
              | None -> None
              | Some s' ->
                (match with_schedule level.Hierarchy.technique s' with
                | None -> None
                | Some technique -> Some { level with Hierarchy.technique })
            end))
    (List.init (List.length levels) Fun.id)

let candidates d =
  drop_levels d @ halve_workload d @ collapse_burst d @ collapse_batch d
  @ halve_retentions d

let minimize ~keep d =
  let rec go d steps fuel =
    if fuel = 0 then (d, steps)
    else begin
      match List.find_opt keep (candidates d) with
      | None -> (d, steps)
      | Some d' -> go d' (steps + 1) (fuel - 1)
    end
  in
  go d 0 64
