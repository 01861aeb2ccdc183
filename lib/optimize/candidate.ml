open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model

type kit = {
  workload : Workload.t;
  business : Business.t;
  primary : Device.t;
  tape_library : Device.t;
  vault : Device.t;
  remote_array : Device.t;
  san : Interconnect.t;
  shipment : Interconnect.t;
  wan : int -> Interconnect.t;
}

type space = {
  pit_techniques : [ `Split_mirror | `Snapshot ] list;
  pit_accumulations : Duration.t list;
  pit_retentions : int list;
  backup_accumulations : Duration.t list;
  backup_retention_horizon : Duration.t;
  vault_accumulations : Duration.t list;
  vault_retention_horizon : Duration.t;
  mirror_links : int list;
}

let default_space =
  {
    pit_techniques = [ `Split_mirror; `Snapshot ];
    pit_accumulations = [ Duration.hours 6.; Duration.hours 12.; Duration.hours 24. ];
    pit_retentions = [ 2; 4 ];
    backup_accumulations =
      [ Duration.hours 24.; Duration.hours 48.; Duration.weeks 1. ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ Duration.weeks 1.; Duration.weeks 4. ];
    vault_retention_horizon = Duration.years 3.;
    mirror_links = [ 1; 2; 4; 10 ];
  }

let retention_for ~horizon ~cycle =
  max 1 (int_of_float (ceil (Duration.ratio horizon cycle)))

let label_duration d =
  let h = Duration.to_hours d in
  if Float.rem h 168. = 0. then Printf.sprintf "%.0fwk" (h /. 168.)
  else if Float.rem h 24. = 0. then Printf.sprintf "%.0fd" (h /. 24.)
  else if h >= 1. then Printf.sprintf "%.0fh" h
  else Printf.sprintf "%.0fmin" (Duration.to_minutes d)

(* Scaled spaces for large-grid searches: same two PiT techniques and
   mirror family as [default_space], with the accumulation dimensions
   densified so that the grid grows as O(scale^3). The retention horizons
   are stretched (26 weeks of backups, 6 years of vault copies) so that
   retention counts stay non-decreasing up the hierarchy for every
   accumulation combination — a denser grid of valid designs, not a
   denser grid of lint rejects. *)
let scaled_space ~scale =
  if scale <= 1 then default_space
  else
    let spread lo hi n =
      List.init n (fun i ->
          Duration.hours
            (lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))))
    in
    {
      pit_techniques = [ `Split_mirror; `Snapshot ];
      pit_accumulations = spread 2. 24. (5 * scale);
      pit_retentions = [ 2; 3; 4 ];
      backup_accumulations = spread 24. 168. (4 * scale);
      backup_retention_horizon = Duration.weeks 26.;
      vault_accumulations = spread 168. (8. *. 168.) (3 * scale);
      vault_retention_horizon = Duration.years 6.;
      mirror_links = [ 1; 2; 3; 4; 6; 8; 10 ];
    }

(* --- level construction ---

   Every level and name fragment is built by exactly one function, for
   the [axes] tables the point decoder reads. [enumerate] is that decoder
   run over every point, so the solvers and the exhaustive search build
   structurally identical designs for the same grid cell (the testkit
   oracle compares their optima). *)

let primary_level kit =
  {
    Hierarchy.technique = Technique.Primary_copy { raid = Raid.Raid1 };
    device = kit.primary;
    link = None;
  }

let backup_level kit space backup_acc =
  let backup_prop =
    Duration.min (Duration.scale 0.5 backup_acc) (Duration.hours 48.)
  in
  let backup_schedule =
    Schedule.simple ~acc:backup_acc ~prop:backup_prop ~hold:(Duration.hours 1.)
      ~retention_count:
        (retention_for ~horizon:space.backup_retention_horizon ~cycle:backup_acc)
      ()
  in
  ( {
      Hierarchy.technique = Technique.Backup backup_schedule;
      device = kit.tape_library;
      link = Some kit.san;
    },
    label_duration backup_acc )

let vault_level kit space vault_acc =
  let vault_schedule =
    Schedule.simple ~acc:vault_acc
      ~prop:(Duration.hours 24.)
      ~hold:(Duration.hours 12.)
      ~retention_count:
        (retention_for ~horizon:space.vault_retention_horizon ~cycle:vault_acc)
      ()
  in
  ( {
      Hierarchy.technique = Technique.Vaulting vault_schedule;
      device = kit.vault;
      link = Some kit.shipment;
    },
    label_duration vault_acc )

let pit_parts kit pit_kind pit_acc pit_ret =
  let pit_prefix =
    match pit_kind with `Split_mirror -> "mirror" | `Snapshot -> "snap"
  in
  let pit_schedule = Schedule.simple ~acc:pit_acc ~retention_count:pit_ret () in
  let pit_technique =
    match pit_kind with
    | `Split_mirror -> Technique.Split_mirror pit_schedule
    | `Snapshot -> Technique.Virtual_snapshot pit_schedule
  in
  ( { Hierarchy.technique = pit_technique; device = kit.primary; link = None },
    pit_prefix ^ "/" ^ label_duration pit_acc ^ " x" ^ string_of_int pit_ret )

let mirror_level kit links =
  let schedule =
    Schedule.simple ~acc:(Duration.minutes 1.) ~prop:(Duration.minutes 1.)
      ~retention_count:1 ()
  in
  {
    Hierarchy.technique =
      Technique.Remote_mirror { mode = Technique.Asynchronous_batch; schedule };
    device = kit.remote_array;
    link = Some (kit.wan links);
  }

(* --- the grid as an indexed coordinate space --- *)

type point =
  | Tape of { pit : int; pit_acc : int; pit_ret : int; backup : int; vault : int }
  | Mirror of { links : int }

let tape_dims space =
  ( List.length space.pit_techniques,
    List.length space.pit_accumulations,
    List.length space.pit_retentions,
    List.length space.backup_accumulations,
    List.length space.vault_accumulations )

let tape_count space =
  let nk, na, nr, nb, nv = tape_dims space in
  nk * na * nr * nb * nv

let mirror_count space = List.length space.mirror_links
let point_count space = tape_count space + mirror_count space

(* Mixed-radix decode: the tape family first (pit kind outermost, vault
   innermost), then the mirrors. The axis lengths are read once per
   decoder, not once per index. *)
let decoder space =
  let _, na, nr, nb, nv = tape_dims space in
  let tapes = tape_count space in
  let count = tapes + mirror_count space in
  fun i ->
    if i < 0 || i >= count then
      invalid_arg "Candidate.point_of_index: index out of range";
    if i < tapes then begin
      let vault = i mod nv in
      let i = i / nv in
      let backup = i mod nb in
      let i = i / nb in
      let pit_ret = i mod nr in
      let i = i / nr in
      let pit_acc = i mod na in
      let pit = i / na in
      Tape { pit; pit_acc; pit_ret; backup; vault }
    end
    else Mirror { links = i - tapes }

let point_of_index space i = decoder space i

let points space = Seq.map (decoder space) (Seq.init (point_count space) Fun.id)

(* Every level record, schedule and name fragment that varies along the
   axes is built once per [axes] and shared by every cell it appears in —
   each PiT level by all its backup x vault cells. Besides the
   construction time, the sharing keeps long-lived design accumulators
   (Pareto fronts, top-k sets) from retaining a private copy of each
   schedule per design. *)
type axes = {
  akit : kit;
  background : (string * Storage_device.Demand.labeled list) list;
  aprimary : Hierarchy.level;
  pits : (Hierarchy.level * string) array array array;
      (* [pits.(pit).(pit_acc).(pit_ret)] *)
  abackups : (Hierarchy.level * string) array;
  avaults : (Hierarchy.level * string) array;
  amirrors : int array;
}

let axes ?(background = []) kit space =
  let table f xs = Array.of_list (List.map f xs) in
  {
    akit = kit;
    background;
    aprimary = primary_level kit;
    pits =
      table
        (fun kind ->
          table
            (fun acc -> table (pit_parts kit kind acc) space.pit_retentions)
            space.pit_accumulations)
        space.pit_techniques;
    abackups = table (backup_level kit space) space.backup_accumulations;
    avaults = table (vault_level kit space) space.vault_accumulations;
    amirrors = Array.of_list space.mirror_links;
  }

let in_range a i = i >= 0 && i < Array.length a

let pit_cell t ~pit ~pit_acc ~pit_ret =
  if
    in_range t.pits pit
    && in_range t.pits.(pit) pit_acc
    && in_range t.pits.(pit).(pit_acc) pit_ret
  then Some t.pits.(pit).(pit_acc).(pit_ret)
  else None

let build t ~name levels =
  match Hierarchy.make levels with
  | Error _ -> None
  | Ok hierarchy ->
    Some
      (Design.make ~name ~workload:t.akit.workload ~hierarchy
         ~business:t.akit.business ~background:t.background ())

(* The one place a grid cell becomes a design. A level stack that
   violates the hierarchy conventions, or a design the linter would
   reject, yields [None]. *)
let assemble t ~name levels =
  match build t ~name levels with
  | Some design as cell when Design.validate design = Ok () -> cell
  | Some _ | None -> None

let design_of_point t = function
  | Tape { pit; pit_acc; pit_ret; backup; vault } -> (
    match pit_cell t ~pit ~pit_acc ~pit_ret with
    | Some (pit_level, pit_fragment)
      when in_range t.abackups backup && in_range t.avaults vault ->
      let backup_level, backup_label = t.abackups.(backup) in
      let vault_level, vault_label = t.avaults.(vault) in
      assemble t
        ~name:(pit_fragment ^ ", backup/" ^ backup_label ^ ", vault/" ^ vault_label)
        [ t.aprimary; pit_level; backup_level; vault_level ]
    | Some _ | None -> None)
  | Mirror { links } ->
    if in_range t.amirrors links then
      assemble t
        ~name:("asyncB mirror x" ^ string_of_int t.amirrors.(links))
        [ t.aprimary; mirror_level t.akit t.amirrors.(links) ]
    else None

(* The axis tables are built inside the first forced cell, once per
   traversal, so an unforced grid costs nothing. *)
let enumerate kit space () =
  Seq.filter_map (design_of_point (axes kit space)) (points space) ()

let tape_prefix t ~pit ~pit_acc ~pit_ret ?backup () =
  let ( let* ) = Option.bind in
  let* pit_level, pit_fragment = pit_cell t ~pit ~pit_acc ~pit_ret in
  match backup with
  | None -> build t ~name:("prefix " ^ pit_fragment) [ t.aprimary; pit_level ]
  | Some b when in_range t.abackups b ->
    let backup_level, backup_label = t.abackups.(b) in
    build t
      ~name:("prefix " ^ pit_fragment ^ ", backup/" ^ backup_label)
      [ t.aprimary; pit_level; backup_level ]
  | Some _ -> None
