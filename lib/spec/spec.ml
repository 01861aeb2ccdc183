open Storage_units
open Storage_workload
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_model

let ( let* ) = Result.bind
let err fmt = Printf.ksprintf (fun m -> Error m) fmt

let rec traverse f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = traverse f rest in
    Ok (y :: ys)

let words s =
  String.split_on_char ' ' s |> List.filter (fun w -> w <> "")

let reject_unknown section ~known =
  match Ini.unknown_keys section ~known with
  | [] -> Ok ()
  | ks ->
    err "[%s%s]: unknown key%s %s" section.Ini.kind
      (match section.Ini.arg with Some a -> " " ^ a | None -> "")
      (if List.length ks > 1 then "s" else "")
      (String.concat ", " ks)

(* --- workload --- *)

let parse_batch_curve raw =
  let samples = String.split_on_char ',' raw in
  let* parsed =
    traverse
      (fun sample ->
        match String.index_opt sample ':' with
        | None -> err "batch sample %S must be \"WINDOW: RATE\"" sample
        | Some i ->
          let* win = Values.duration (String.sub sample 0 i) in
          let* rate =
            Values.rate
              (String.sub sample (i + 1) (String.length sample - i - 1))
          in
          Ok (win, rate))
      samples
  in
  match Batch_curve.of_samples parsed with
  | curve -> Ok curve
  | exception Invalid_argument m -> Error m

let parse_workload section =
  let* () =
    reject_unknown section
      ~known:
        [ "name"; "data_capacity"; "avg_access_rate"; "avg_update_rate";
          "burst_multiplier"; "batch" ]
  in
  let name = Option.value ~default:"workload" (Ini.get_opt section "name") in
  let* data_capacity = Ini.get_parsed section "data_capacity" Values.size in
  let* avg_access_rate = Ini.get_parsed section "avg_access_rate" Values.rate in
  let* avg_update_rate = Ini.get_parsed section "avg_update_rate" Values.rate in
  let* burst_multiplier =
    Ini.get_parsed section "burst_multiplier" Values.float_pos
  in
  let* batch_curve = Ini.get_parsed section "batch" parse_batch_curve in
  match
    Workload.make ~name ~data_capacity ~avg_access_rate ~avg_update_rate
      ~burst_multiplier ~batch_curve
  with
  | w -> Ok w
  | exception Invalid_argument m -> err "[workload]: %s" m

(* --- devices --- *)

let parse_location raw =
  match String.split_on_char '/' raw with
  | [ region; site; building ] ->
    Ok (Location.make ~building ~site ~region)
  | _ -> err "location %S must be \"region/site/building\"" raw

let parse_spare raw =
  match words (String.lowercase_ascii raw) with
  | [ "none" ] -> Ok Spare.No_spare
  | [ "dedicated"; dur ] ->
    let* provisioning_time = Values.duration dur in
    Ok (Spare.Dedicated { provisioning_time })
  | [ "shared"; dur; frac ] ->
    let* provisioning_time = Values.duration dur in
    let* discount = Values.float_pos frac in
    if discount > 1. then err "spare discount %g must be in [0, 1]" discount
    else Ok (Spare.Shared { provisioning_time; discount })
  | _ ->
    err "spare %S must be \"none\", \"dedicated DUR\" or \"shared DUR FRAC\""
      raw

let device_keys =
  [ "location"; "capacity_slots"; "bandwidth_slots"; "enclosure_bandwidth";
    "access_delay"; "cost_fixed"; "cost_per_gib"; "cost_per_mibps";
    "cost_per_shipment"; "spare"; "remote_spare" ]

let parse_device section =
  let* name =
    match section.Ini.arg with
    | Some a -> Ok a
    | None -> err "line %d: [device] needs a name" section.Ini.line
  in
  let* () = reject_unknown section ~known:device_keys in
  let* location = Ini.get_parsed section "location" parse_location in
  let* cap_slots, slot_capacity =
    let* raw = Ini.get section "capacity_slots" in
    let* n, rest = Values.counted raw in
    let* size = Values.size rest in
    Ok (n, size)
  in
  let* bw =
    match Ini.get_opt section "bandwidth_slots" with
    | None -> Ok None
    | Some raw ->
      let* n, rest = Values.counted raw in
      let* rate = Values.rate rest in
      Ok (Some (n, rate))
  in
  let* enclosure_bandwidth =
    Ini.get_parsed_opt section "enclosure_bandwidth" Values.rate
  in
  let* access_delay = Ini.get_parsed_opt section "access_delay" Values.duration in
  let* fixed = Ini.get_parsed_opt section "cost_fixed" Values.money in
  let* per_gib = Ini.get_parsed_opt section "cost_per_gib" Values.float_pos in
  let* per_mib = Ini.get_parsed_opt section "cost_per_mibps" Values.float_pos in
  let* per_shipment =
    Ini.get_parsed_opt section "cost_per_shipment" Values.float_pos
  in
  let* spare = Ini.get_parsed_opt section "spare" parse_spare in
  let* remote_spare = Ini.get_parsed_opt section "remote_spare" parse_spare in
  let cost =
    Cost_model.make
      ~fixed:(Option.value ~default:Money.zero fixed)
      ~per_gib:(Option.value ~default:0. per_gib)
      ~per_mib_per_sec:(Option.value ~default:0. per_mib)
      ~per_shipment:(Option.value ~default:0. per_shipment)
      ()
  in
  match
    Device.make ~name ~location ~max_capacity_slots:cap_slots ~slot_capacity
      ?max_bandwidth_slots:(Option.map fst bw)
      ?slot_bandwidth:(Option.map snd bw) ?enclosure_bandwidth ?access_delay
      ~cost
      ?spare ?remote_spare ()
  with
  | d -> Ok d
  | exception Invalid_argument m -> err "[device %s]: %s" name m

(* --- links --- *)

let link_keys = [ "type"; "bandwidth"; "delay"; "cost_per_mibps"; "cost_per_shipment" ]

let parse_link section =
  let* name =
    match section.Ini.arg with
    | Some a -> Ok a
    | None -> err "line %d: [link] needs a name" section.Ini.line
  in
  let* () = reject_unknown section ~known:link_keys in
  let* kind = Ini.get section "type" in
  let* delay = Ini.get_parsed_opt section "delay" Values.duration in
  let* per_mib = Ini.get_parsed_opt section "cost_per_mibps" Values.float_pos in
  let* per_shipment =
    Ini.get_parsed_opt section "cost_per_shipment" Values.float_pos
  in
  let cost =
    Cost_model.make
      ~per_mib_per_sec:(Option.value ~default:0. per_mib)
      ~per_shipment:(Option.value ~default:0. per_shipment)
      ()
  in
  let* transport =
    match String.lowercase_ascii (String.trim kind) with
    | "shipment" -> Ok Interconnect.Shipment
    | "network" ->
      let* raw = Ini.get section "bandwidth" in
      let* links, rest = Values.counted raw in
      let* link_bandwidth = Values.rate rest in
      Ok (Interconnect.Network { link_bandwidth; links })
    | other -> err "[link %s]: unknown type %S" name other
  in
  match Interconnect.make ~name ~transport ?delay ~cost () with
  | l -> Ok l
  | exception Invalid_argument m -> err "[link %s]: %s" name m

(* --- levels --- *)

let parse_raid raw =
  match String.lowercase_ascii (String.trim raw) with
  | "raid0" | "raid-0" -> Ok Raid.Raid0
  | "raid1" | "raid-1" -> Ok Raid.Raid1
  | "raid10" | "raid-10" -> Ok Raid.Raid10
  | other ->
    if String.length other >= 5 && String.sub other 0 5 = "raid5" then begin
      match String.index_opt other '(' with
      | None -> Ok (Raid.Raid5 { stripe_width = 5 })
      | Some i -> (
        let close = String.index_opt other ')' in
        match close with
        | Some j when j > i + 1 -> (
          let* w = Values.int_pos (String.sub other (i + 1) (j - i - 1)) in
          match Raid.Raid5 { stripe_width = w } with
          | r ->
            (* validate eagerly *)
            let* _ =
              match Raid.capacity_factor r with
              | _ -> Ok ()
              | exception Invalid_argument m -> Error m
            in
            Ok r)
        | _ -> err "malformed raid5 spec %S" raw)
    end
    else err "unknown raid organization %S" raw

let parse_incremental raw =
  match words raw with
  | rep :: rest ->
    let* representation =
      match String.lowercase_ascii rep with
      | "cumulative" -> Ok Schedule.Cumulative
      | "differential" -> Ok Schedule.Differential
      | other -> err "incremental kind %S (cumulative|differential)" other
    in
    let* kvs =
      traverse
        (fun tok ->
          match String.index_opt tok '=' with
          | None -> err "incremental token %S must be key=value" tok
          | Some i ->
            Ok
              ( String.lowercase_ascii (String.sub tok 0 i),
                String.sub tok (i + 1) (String.length tok - i - 1) ))
        rest
    in
    let lookup k = List.assoc_opt k kvs in
    let* acc =
      match lookup "acc" with
      | Some v -> Values.duration v
      | None -> Error "incremental needs acc=DUR"
    in
    let* count =
      match lookup "count" with
      | Some v -> Values.int_pos v
      | None -> Error "incremental needs count=N"
    in
    let* prop =
      match lookup "prop" with
      | Some v -> Values.duration v
      | None -> Ok Duration.zero
    in
    let* hold =
      match lookup "hold" with
      | Some v -> Values.duration v
      | None -> Ok Duration.zero
    in
    (match Schedule.windows ~acc ~prop ~hold () with
    | w -> Ok (representation, w, count)
    | exception Invalid_argument m -> Error m)
  | [] -> Error "empty incremental spec"

let level_keys =
  [ "technique"; "device"; "link"; "raid"; "acc"; "prop"; "hold"; "retention";
    "incremental"; "fragments"; "required" ]

let parse_schedule section =
  let* acc = Ini.get_parsed section "acc" Values.duration in
  let* prop = Ini.get_parsed_opt section "prop" Values.duration in
  let* hold = Ini.get_parsed_opt section "hold" Values.duration in
  let* retention = Ini.get_parsed section "retention" Values.int_pos in
  let* incremental =
    Ini.get_parsed_opt section "incremental" parse_incremental
  in
  match
    (match incremental with
    | None ->
      Schedule.simple ~acc ?prop ?hold ~retention_count:retention ()
    | Some (representation, win, count) ->
      Schedule.make
        ~full:
          (Schedule.windows ~acc
             ?prop ?hold ())
        ~secondary:(representation, win) ~cycle_count:count
        ~retention_count:retention ())
  with
  | s -> Ok s
  | exception Invalid_argument m -> Error m

let parse_level ~devices ~links section =
  let* index =
    match section.Ini.arg with
    | Some a -> Values.int_pos a
    | None -> err "line %d: [level] needs an index" section.Ini.line
  in
  let* () = reject_unknown section ~known:level_keys in
  let* device_name = Ini.get section "device" in
  let* device =
    match
      List.find_opt
        (fun (d : Device.t) -> String.equal d.Device.name device_name)
        devices
    with
    | Some d -> Ok d
    | None ->
      err "[level %d]: unknown device %S (defined: %s)" index device_name
        (String.concat ", "
           (List.map (fun (d : Device.t) -> d.Device.name) devices))
  in
  let* link =
    match Ini.get_opt section "link" with
    | None -> Ok None
    | Some link_name -> (
      match
        List.find_opt
          (fun (l : Interconnect.t) ->
            String.equal l.Interconnect.name link_name)
          links
      with
      | Some l -> Ok (Some l)
      | None ->
        err "[level %d]: unknown link %S (defined: %s)" index link_name
          (String.concat ", "
             (List.map
                (fun (l : Interconnect.t) -> l.Interconnect.name)
                links)))
  in
  let* technique_name = Ini.get section "technique" in
  let* technique =
    match String.lowercase_ascii (String.trim technique_name) with
    | "primary" | "primary_copy" ->
      let* raid =
        match Ini.get_opt section "raid" with
        | Some raw -> parse_raid raw
        | None -> Ok Raid.Raid1
      in
      Ok (Technique.Primary_copy { raid })
    | "split_mirror" ->
      let* s = parse_schedule section in
      Ok (Technique.Split_mirror s)
    | "snapshot" | "virtual_snapshot" ->
      let* s = parse_schedule section in
      Ok (Technique.Virtual_snapshot s)
    | "backup" ->
      let* s = parse_schedule section in
      Ok (Technique.Backup s)
    | "vaulting" | "vault" ->
      let* s = parse_schedule section in
      Ok (Technique.Vaulting s)
    | "sync_mirror" ->
      let* s = parse_schedule section in
      Ok (Technique.Remote_mirror { mode = Technique.Synchronous; schedule = s })
    | "async_mirror" ->
      let* s = parse_schedule section in
      Ok (Technique.Remote_mirror { mode = Technique.Asynchronous; schedule = s })
    | "async_batch_mirror" ->
      let* s = parse_schedule section in
      Ok
        (Technique.Remote_mirror
           { mode = Technique.Asynchronous_batch; schedule = s })
    | "erasure_coded" -> (
      let* s = parse_schedule section in
      let* fragments = Ini.get_parsed section "fragments" Values.int_pos in
      let* required = Ini.get_parsed section "required" Values.int_pos in
      if required <= 0 || fragments < required then
        err "[level %d]: need fragments >= required > 0" index
      else Ok (Technique.Erasure_coded { fragments; required; schedule = s }))
    | other -> err "[level %d]: unknown technique %S" index other
  in
  Ok (index, { Hierarchy.technique; device; link })

(* --- business --- *)

let parse_penalty_rate raw =
  let raw = String.trim raw in
  let strip_suffix suffix =
    let n = String.length raw and m = String.length suffix in
    if n >= m && String.lowercase_ascii (String.sub raw (n - m) m) = suffix
    then Some (String.sub raw 0 (n - m))
    else None
  in
  match strip_suffix "/hr" with
  | Some amount ->
    let* m = Values.money amount in
    Ok (Money_rate.usd_per_hour (Money.to_usd m))
  | None -> (
    match strip_suffix "/s" with
    | Some amount ->
      let* m = Values.money amount in
      Ok (Money_rate.usd_per_sec (Money.to_usd m))
    | None -> err "penalty rate %S must end in /hr or /s" raw)

let business_keys =
  [ "outage_penalty"; "loss_penalty"; "rto"; "rpo"; "total_loss_equivalent" ]

let parse_business section =
  let* () = reject_unknown section ~known:business_keys in
  let* outage_penalty_rate =
    Ini.get_parsed section "outage_penalty" parse_penalty_rate
  in
  let* loss_penalty_rate =
    Ini.get_parsed section "loss_penalty" parse_penalty_rate
  in
  let* rto = Ini.get_parsed_opt section "rto" Values.duration in
  let* rpo = Ini.get_parsed_opt section "rpo" Values.duration in
  let* total_loss =
    Ini.get_parsed_opt section "total_loss_equivalent" Values.duration
  in
  Ok
    (Business.make ~outage_penalty_rate ~loss_penalty_rate
       ?recovery_time_objective:rto ?recovery_point_objective:rpo
       ?total_loss_equivalent:total_loss ())

(* --- scenarios --- *)

let parse_scope raw =
  let parse_one part =
    match words part with
    | [ "object" ] -> Ok Location.Data_object
    | [ "device"; n ] -> Ok (Location.Device n)
    | [ "building"; n ] -> Ok (Location.Building n)
    | [ "site"; n ] -> Ok (Location.Site n)
    | [ "region"; n ] -> Ok (Location.Region n)
    | _ ->
      err
        "scope %S must be \"object\" or \"device|building|site|region NAME\" \
         (combine simultaneous failures with \"+\")"
        part
  in
  match String.split_on_char '+' raw with
  | [ one ] -> parse_one one
  | parts ->
    let* scopes = traverse parse_one parts in
    Ok (Location.Multiple scopes)

let scenario_keys = [ "scope"; "target_age"; "object_size" ]

let parse_scenario section =
  let name =
    Option.value ~default:(Printf.sprintf "line-%d" section.Ini.line)
      section.Ini.arg
  in
  let* () = reject_unknown section ~known:scenario_keys in
  let* scope = Ini.get_parsed section "scope" parse_scope in
  let* target_age = Ini.get_parsed_opt section "target_age" Values.duration in
  let* object_size = Ini.get_parsed_opt section "object_size" Values.size in
  match Scenario.make ~scope ?target_age ?object_size () with
  | s -> Ok (name, s)
  | exception Invalid_argument m -> err "[scenario %s]: %s" name m

(* --- assembly --- *)

(* Both halves assemble from one parsed section list, so [of_string] runs
   the INI parser once per text. *)
let design_of_sections ~validate sections =
  let* workload_section = Ini.find_one sections ~kind:"workload" in
  let* workload = parse_workload workload_section in
  let* devices = traverse parse_device (Ini.find_all sections ~kind:"device") in
  let* links = traverse parse_link (Ini.find_all sections ~kind:"link") in
  let* business_section = Ini.find_one sections ~kind:"business" in
  let* business = parse_business business_section in
  let level_sections = Ini.find_all sections ~kind:"level" in
  if level_sections = [] then Error "a design needs at least [level 0]"
  else begin
    let* indexed = traverse (parse_level ~devices ~links) level_sections in
    let sorted = List.sort (fun (a, _) (b, _) -> compare a b) indexed in
    let* () =
      let rec contiguous expected = function
        | [] -> Ok ()
        | (i, _) :: rest ->
          if i = expected then contiguous (expected + 1) rest
          else err "level indices must be contiguous from 0; found %d" i
      in
      contiguous 0 sorted
    in
    let* hierarchy =
      match Hierarchy.make (List.map snd sorted) with
      | Ok h -> Ok h
      | Error m -> err "hierarchy: %s" m
    in
    let design =
      Design.make ~name:workload.Workload.name ~workload ~hierarchy ~business
        ()
    in
    if not validate then Ok design
    else
      match Design.validate design with
      | Ok () -> Ok design
      | Error es -> err "design invalid: %s" (String.concat "; " es)
  end

let scenarios_of_sections sections =
  traverse parse_scenario (Ini.find_all sections ~kind:"scenario")

let of_string ?(validate = true) text =
  let* sections = Ini.parse text in
  let* design = design_of_sections ~validate sections in
  let* scenarios = scenarios_of_sections sections in
  Ok (design, scenarios)

let design_of_string ?(validate = true) text =
  Result.bind (Ini.parse text) (design_of_sections ~validate)

let scenarios_of_string text =
  Result.bind (Ini.parse text) scenarios_of_sections

(* --- serialization --- *)

(* A float literal [Values.number_and_unit] can read back to the same bits.
   The grammar has no exponent syntax, so scientific notation must be
   expanded into plain decimal digits. *)
let lit v =
  if not (Float.is_finite v) then invalid_arg "Spec.lit: non-finite value"
  else if Float.is_integer v then Printf.sprintf "%.0f" v
  else begin
    let round_trips s = float_of_string s = v in
    let shortest =
      let rec try_prec p =
        if p > 17 then Printf.sprintf "%.17g" v
        else
          let s = Printf.sprintf "%.*g" p v in
          if round_trips s then s else try_prec (p + 1)
      in
      try_prec 15
    in
    if String.contains shortest 'e' || String.contains shortest 'E' then begin
      (* Only sub-unity magnitudes reach here (integers were handled
         above); 25 fractional digits carry >= 17 significant ones for
         anything down to 1e-8, far below any physical quantity in a
         design. *)
      let s = Printf.sprintf "%.25f" v in
      if round_trips s then s else shortest (* give up; caller will error *)
    end
    else shortest
  end

let duration_str d = lit (Duration.to_seconds d) ^ "s"
let size_str s = lit (Size.to_bytes s) ^ " B"
let rate_str r = lit (Rate.to_bytes_per_sec r) ^ " B/s"
let money_str m = "$" ^ lit (Money.to_usd m)
let penalty_str r = "$" ^ lit (Money_rate.to_usd_per_sec r) ^ "/s"

let location_str (l : Location.t) =
  Printf.sprintf "%s/%s/%s" l.Location.region l.Location.site
    l.Location.building

let spare_str = function
  | Spare.No_spare -> "none"
  | Spare.Dedicated { provisioning_time } ->
    "dedicated " ^ duration_str provisioning_time
  | Spare.Shared { provisioning_time; discount } ->
    Printf.sprintf "shared %s %s" (duration_str provisioning_time)
      (lit discount)

let raid_str = function
  | Raid.Raid0 -> "raid0"
  | Raid.Raid1 -> "raid1"
  | Raid.Raid10 -> "raid10"
  | Raid.Raid5 { stripe_width } -> Printf.sprintf "raid5(%d)" stripe_width

let rec scope_str = function
  | Location.Data_object -> Ok "object"
  | Location.Device n -> Ok ("device " ^ n)
  | Location.Building n -> Ok ("building " ^ n)
  | Location.Site n -> Ok ("site " ^ n)
  | Location.Region n -> Ok ("region " ^ n)
  | Location.Multiple scopes ->
    let* parts = traverse scope_str scopes in
    Ok (String.concat "+" parts)

let emit_schedule buf (s : Schedule.t) =
  if s.Schedule.copy_representation <> Schedule.Full then
    err "cannot serialize a non-full copy representation"
  else begin
    let kv k v = Buffer.add_string buf (Printf.sprintf "%s = %s\n" k v) in
    kv "acc" (duration_str s.Schedule.full.Schedule.accumulation);
    if not (Duration.is_zero s.Schedule.full.Schedule.propagation) then
      kv "prop" (duration_str s.Schedule.full.Schedule.propagation);
    if not (Duration.is_zero s.Schedule.full.Schedule.hold) then
      kv "hold" (duration_str s.Schedule.full.Schedule.hold);
    kv "retention" (string_of_int s.Schedule.retention_count);
    (match s.Schedule.secondary with
    | None -> ()
    | Some (representation, w) ->
      kv "incremental"
        (Printf.sprintf "%s acc=%s prop=%s hold=%s count=%d"
           (match representation with
           | Schedule.Cumulative -> "cumulative"
           | Schedule.Differential -> "differential"
           | Schedule.Full -> assert false (* rejected by Schedule.make *))
           (duration_str w.Schedule.accumulation)
           (duration_str w.Schedule.propagation)
           (duration_str w.Schedule.hold)
           s.Schedule.cycle_count));
    Ok ()
  end

let emit_level buf ~index (level : Hierarchy.level) =
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s = %s\n" k v) in
  Buffer.add_string buf (Printf.sprintf "[level %d]\n" index);
  let technique_name, schedule, extra =
    match level.Hierarchy.technique with
    | Technique.Primary_copy { raid } ->
      ("primary", None, [ ("raid", raid_str raid) ])
    | Technique.Split_mirror s -> ("split_mirror", Some s, [])
    | Technique.Virtual_snapshot s -> ("snapshot", Some s, [])
    | Technique.Backup s -> ("backup", Some s, [])
    | Technique.Vaulting s -> ("vaulting", Some s, [])
    | Technique.Remote_mirror { mode; schedule } ->
      ( (match mode with
        | Technique.Synchronous -> "sync_mirror"
        | Technique.Asynchronous -> "async_mirror"
        | Technique.Asynchronous_batch -> "async_batch_mirror"),
        Some schedule,
        [] )
    | Technique.Erasure_coded { fragments; required; schedule } ->
      ( "erasure_coded",
        Some schedule,
        [
          ("fragments", string_of_int fragments);
          ("required", string_of_int required);
        ] )
  in
  kv "technique" technique_name;
  kv "device" level.Hierarchy.device.Device.name;
  (match level.Hierarchy.link with
  | None -> ()
  | Some l -> kv "link" l.Interconnect.name);
  List.iter (fun (k, v) -> kv k v) extra;
  let* () =
    match schedule with None -> Ok () | Some s -> emit_schedule buf s
  in
  Buffer.add_char buf '\n';
  Ok ()

let emit_device buf (d : Device.t) =
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s = %s\n" k v) in
  Buffer.add_string buf (Printf.sprintf "[device %s]\n" d.Device.name);
  kv "location" (location_str d.Device.location);
  kv "capacity_slots"
    (Printf.sprintf "%d x %s" d.Device.max_capacity_slots
       (size_str d.Device.slot_capacity));
  if d.Device.max_bandwidth_slots > 0 then
    kv "bandwidth_slots"
      (Printf.sprintf "%d x %s" d.Device.max_bandwidth_slots
         (rate_str d.Device.slot_bandwidth));
  if not (Rate.is_zero d.Device.enclosure_bandwidth) then
    kv "enclosure_bandwidth" (rate_str d.Device.enclosure_bandwidth);
  if not (Duration.is_zero d.Device.access_delay) then
    kv "access_delay" (duration_str d.Device.access_delay);
  let c = d.Device.cost in
  if not (Money.is_zero c.Cost_model.fixed) then
    kv "cost_fixed" (money_str c.Cost_model.fixed);
  if c.Cost_model.per_gib <> 0. then kv "cost_per_gib" (lit c.Cost_model.per_gib);
  if c.Cost_model.per_mib_per_sec <> 0. then
    kv "cost_per_mibps" (lit c.Cost_model.per_mib_per_sec);
  if c.Cost_model.per_shipment <> 0. then
    kv "cost_per_shipment" (lit c.Cost_model.per_shipment);
  if d.Device.spare <> Spare.No_spare then kv "spare" (spare_str d.Device.spare);
  if d.Device.remote_spare <> Spare.No_spare then
    kv "remote_spare" (spare_str d.Device.remote_spare);
  Buffer.add_char buf '\n'

let emit_link buf (l : Interconnect.t) =
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s = %s\n" k v) in
  Buffer.add_string buf (Printf.sprintf "[link %s]\n" l.Interconnect.name);
  (match l.Interconnect.transport with
  | Interconnect.Shipment -> kv "type" "shipment"
  | Interconnect.Network { link_bandwidth; links } ->
    kv "type" "network";
    kv "bandwidth" (Printf.sprintf "%d x %s" links (rate_str link_bandwidth)));
  if not (Duration.is_zero l.Interconnect.delay) then
    kv "delay" (duration_str l.Interconnect.delay);
  let c = l.Interconnect.cost in
  if c.Cost_model.per_mib_per_sec <> 0. then
    kv "cost_per_mibps" (lit c.Cost_model.per_mib_per_sec);
  if c.Cost_model.per_shipment <> 0. then
    kv "cost_per_shipment" (lit c.Cost_model.per_shipment);
  Buffer.add_char buf '\n'

let emit_scenario buf (name, (sc : Scenario.t)) =
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s = %s\n" k v) in
  Buffer.add_string buf (Printf.sprintf "[scenario %s]\n" name);
  let* scope = scope_str sc.Scenario.scope in
  kv "scope" scope;
  if not (Duration.is_zero sc.Scenario.target_age) then
    kv "target_age" (duration_str sc.Scenario.target_age);
  (match sc.Scenario.object_size with
  | None -> ()
  | Some s -> kv "object_size" (size_str s));
  Buffer.add_char buf '\n';
  Ok ()

let design_to_string ?(scenarios = []) (d : Design.t) =
  let buf = Buffer.create 1024 in
  let kv k v = Buffer.add_string buf (Printf.sprintf "%s = %s\n" k v) in
  let* () =
    if d.Design.background = [] then Ok ()
    else err "cannot serialize a design with background (portfolio) demands"
  in
  (* The parser names the design after its workload, so the workload's own
     name is replaced by the design's: parse (print d) preserves
     [Design.name], which is the identity the corpus and the CLI report. *)
  let w = d.Design.workload in
  Buffer.add_string buf "[workload]\n";
  kv "name" d.Design.name;
  kv "data_capacity" (size_str w.Workload.data_capacity);
  kv "avg_access_rate" (rate_str w.Workload.avg_access_rate);
  kv "avg_update_rate" (rate_str w.Workload.avg_update_rate);
  kv "burst_multiplier" (lit w.Workload.burst_multiplier);
  kv "batch"
    (String.concat ", "
       (List.map
          (fun (win, rate) ->
            Printf.sprintf "%s: %s" (duration_str win) (rate_str rate))
          (Batch_curve.samples w.Workload.batch_curve)));
  Buffer.add_char buf '\n';
  let levels = Hierarchy.levels d.Design.hierarchy in
  let distinct_by_name name_of xs =
    List.fold_left
      (fun acc x ->
        let* acc = acc in
        match List.find_opt (fun y -> name_of y = name_of x) acc with
        | None -> Ok (acc @ [ x ])
        | Some y ->
          if y = x then Ok acc
          else err "two distinct definitions share the name %S" (name_of x))
      (Ok []) xs
  in
  let* devices =
    distinct_by_name
      (fun (dev : Device.t) -> dev.Device.name)
      (List.map (fun (l : Hierarchy.level) -> l.Hierarchy.device) levels)
  in
  let* links =
    distinct_by_name
      (fun (l : Interconnect.t) -> l.Interconnect.name)
      (List.filter_map (fun (l : Hierarchy.level) -> l.Hierarchy.link) levels)
  in
  List.iter (emit_device buf) devices;
  List.iter (emit_link buf) links;
  let* () =
    List.fold_left
      (fun acc (index, level) ->
        let* () = acc in
        emit_level buf ~index level)
      (Ok ())
      (List.mapi (fun i l -> (i, l)) levels)
  in
  let b = d.Design.business in
  Buffer.add_string buf "[business]\n";
  kv "outage_penalty" (penalty_str b.Business.outage_penalty_rate);
  kv "loss_penalty" (penalty_str b.Business.loss_penalty_rate);
  (match b.Business.recovery_time_objective with
  | None -> ()
  | Some rto -> kv "rto" (duration_str rto));
  (match b.Business.recovery_point_objective with
  | None -> ()
  | Some rpo -> kv "rpo" (duration_str rpo));
  kv "total_loss_equivalent" (duration_str b.Business.total_loss_equivalent);
  let* () =
    List.fold_left
      (fun acc named ->
        let* () = acc in
        Buffer.add_char buf '\n';
        emit_scenario buf named)
      (Ok ()) scenarios
  in
  Ok (Buffer.contents buf)

type load_error = Unreadable of string | Invalid of string

(* [Sys_error]'s message already names the file ("path: No such file or
   directory" / "path: Permission denied"); raising it out of here
   instead would hand callers a backtrace where they need a filename. *)
let load_file ?validate path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> Result.map_error (fun m -> Invalid m) (of_string ?validate text)
  | exception Sys_error m -> Error (Unreadable m)
