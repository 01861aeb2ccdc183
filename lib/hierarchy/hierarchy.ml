open Storage_units
open Storage_device
open Storage_protection

type level = {
  technique : Technique.t;
  device : Device.t;
  link : Interconnect.t option;
}

type t = { levels : level array }

let schedule_exn l =
  match Technique.schedule l.technique with
  | Some s -> s
  | None -> invalid_arg "Hierarchy: level without schedule"

let validate levels =
  match levels with
  | [] -> Error "hierarchy must have at least a primary level"
  | primary :: rest ->
    let err fmt = Printf.ksprintf (fun m -> Error m) fmt in
    (match primary.technique with
    | Technique.Primary_copy _ -> (
      let non_primary =
        List.exists
          (fun l ->
            match l.technique with
            | Technique.Primary_copy _ -> true
            | _ -> false)
          rest
      in
      if non_primary then err "only level 0 may be a primary copy"
      else begin
        let missing_schedule =
          List.exists (fun l -> Technique.schedule l.technique = None) rest
        in
        if missing_schedule then
          err "every level above 0 must have a schedule"
        else begin
          (* Conventions on consecutive secondary levels (§3.2.1). *)
          let rec check_pairs = function
            | a :: (b :: _ as tl) ->
              let sa = schedule_exn a and sb = schedule_exn b in
              if
                sb.Schedule.retention_count < sa.Schedule.retention_count
              then
                err "retention count must not decrease with level (%s -> %s)"
                  (Technique.name a.technique)
                  (Technique.name b.technique)
              else if
                Duration.compare
                  sb.Schedule.full.Schedule.accumulation
                  (Schedule.cycle_period sa)
                < 0
              then
                err
                  "accumulation window of %s is shorter than the cycle \
                   period of %s"
                  (Technique.name b.technique)
                  (Technique.name a.technique)
              else check_pairs tl
            | [] | [ _ ] -> Ok ()
          in
          let colocation_ok =
            List.for_all
              (fun l ->
                (not (Technique.colocated_with_primary l.technique))
                || String.equal l.device.Device.name
                     primary.device.Device.name)
              rest
          in
          (* §3.2.3 sizes a backup's bandwidth as its copy size over
             propW: a zero window would demand an infinite rate. *)
          let zero_window i l =
            let zero (w : Schedule.windows) =
              Duration.is_zero w.Schedule.propagation
            in
            match l.technique with
            | Technique.Backup s when zero s.Schedule.full -> Some (i, "full")
            | Technique.Backup { Schedule.secondary = Some (_, w); _ }
              when zero w ->
              Some (i, "incremental")
            | _ -> None
          in
          let check_backup_windows () =
            match List.find_mapi zero_window rest with
            | Some (i, which) ->
              err
                "level %d (backup): the %s propagation window must be \
                 positive"
                (i + 1) which
            | None -> Ok ()
          in
          if not colocation_ok then
            err
              "split mirrors and virtual snapshots must be hosted on the \
               primary device"
          else
            match check_pairs rest with
            | Ok () -> check_backup_windows ()
            | Error _ as e -> e
        end
      end)
    | _ -> err "level 0 must be a primary copy")

let make levels =
  match validate levels with
  | Ok () -> Ok { levels = Array.of_list levels }
  | Error _ as e -> e

let make_exn levels =
  match make levels with Ok t -> t | Error m -> invalid_arg ("Hierarchy: " ^ m)

let hold_retention_inversions t =
  let out = ref [] in
  let n = Array.length t.levels in
  for i = n - 2 downto 1 do
    let si = schedule_exn t.levels.(i) and sj = schedule_exn t.levels.(i + 1) in
    let hold_next = sj.Schedule.full.Schedule.hold in
    let ret_here = Schedule.retention_window si in
    if Duration.compare hold_next ret_here > 0 then out := (i + 1) :: !out
  done;
  !out

(* Compatibility shim over {!hold_retention_inversions}; the structured
   form (with stable codes and locations) lives in [Storage_lint]. *)
let warnings t =
  List.map
    (fun j ->
      Printf.sprintf
        "level %d (%s): hold window exceeds level %d retention window; \
         extra retention capacity is required at level %d"
        j
        (Technique.name t.levels.(j).technique)
        (j - 1) (j - 1))
    (hold_retention_inversions t)

let length t = Array.length t.levels

let level t i =
  if i < 0 || i >= Array.length t.levels then
    invalid_arg "Hierarchy.level: index out of range";
  t.levels.(i)

let levels t = Array.to_list t.levels
let primary t = t.levels.(0)

(* One step of the upstream fold: level [i]'s onward hold and propagation
   windows added to the lag accumulated below it. [upstream_lag] and
   [lags] both advance with it, so their sums agree bit for bit. *)
let add_onward t i acc =
  let w = Schedule.onward_windows (schedule_exn t.levels.(i)) in
  Duration.sum [ acc; w.Schedule.hold; w.Schedule.propagation ]

let upstream_lag t j =
  if j < 0 || j >= Array.length t.levels then
    invalid_arg "Hierarchy.upstream_lag: index out of range";
  let acc = ref Duration.zero in
  for i = 1 to j - 1 do
    acc := add_onward t i !acc
  done;
  !acc

let worst_lag_after t j ~upstream =
  if j = 0 then Duration.zero
  else Schedule.worst_lag (schedule_exn t.levels.(j)) ~upstream

let best_lag_after t j ~upstream =
  if j = 0 then Duration.zero
  else Schedule.best_lag (schedule_exn t.levels.(j)) ~upstream

let retention_span t j =
  if j = 0 then Duration.zero
  else Schedule.retention_span (schedule_exn t.levels.(j))

let range_after t j ~upstream =
  if j = 0 then Some (Age_range.make ~newest_age:Duration.zero ~oldest_age:Duration.zero)
  else begin
    let newest = worst_lag_after t j ~upstream in
    let oldest =
      Duration.add (best_lag_after t j ~upstream) (retention_span t j)
    in
    if Duration.compare newest oldest > 0 then None
    else Some (Age_range.make ~newest_age:newest ~oldest_age:oldest)
  end

let worst_lag t j = worst_lag_after t j ~upstream:(upstream_lag t j)
let best_lag t j = best_lag_after t j ~upstream:(upstream_lag t j)
let guaranteed_range t j = range_after t j ~upstream:(upstream_lag t j)

type lag = {
  worst : Duration.t;
  range : Age_range.t option;
  rp_interval_min : Duration.t;
}

let lags t =
  let n = Array.length t.levels in
  let upstream = ref Duration.zero in
  Array.init n (fun j ->
      let up = !upstream in
      if j >= 1 && j < n - 1 then upstream := add_onward t j up;
      {
        worst = worst_lag_after t j ~upstream:up;
        range = range_after t j ~upstream:up;
        rp_interval_min =
          (if j = 0 then Duration.zero
           else Schedule.rp_interval_min (schedule_exn t.levels.(j)));
      })

let surviving_levels t ~scope =
  let n = Array.length t.levels in
  let alive = ref [] in
  for j = n - 1 downto 0 do
    let l = t.levels.(j) in
    let destroyed =
      Location.destroys scope ~device_name:l.device.Device.name
        l.device.Device.location
    in
    let corrupt = Location.corrupts_object scope && j = 0 in
    if (not destroyed) && not corrupt then alive := j :: !alive
  done;
  !alive

let pp ppf t =
  let pp_level ppf (j, l) =
    Fmt.pf ppf "level %d: %a on %s%a" j Technique.pp l.technique
      l.device.Device.name
      (Fmt.option (fun ppf link ->
           Fmt.pf ppf " via %s" link.Interconnect.name))
      l.link
  in
  Fmt.pf ppf "@[<v>%a@]"
    (Fmt.list ~sep:Fmt.cut pp_level)
    (List.mapi (fun j l -> (j, l)) (Array.to_list t.levels))
