open Storage_units
open Storage_device

type t = { members : Design.t list }

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let union_devices designs =
  let seen = Hashtbl.create 8 in
  List.concat_map Design.devices designs
  |> List.filter (fun (d : Device.t) ->
         if Hashtbl.mem seen d.Device.name then false
         else begin
           Hashtbl.add seen d.Device.name ();
           true
         end)

let make designs =
  match designs with
  | [] -> Error "portfolio must have at least one member"
  | _ ->
    let names = List.map (fun d -> d.Design.name) designs in
    if List.length names <> List.length (List.sort_uniq String.compare names)
    then Error "portfolio members must have distinct names"
    else begin
      (* Devices shared by name must be the very same configuration. *)
      let by_name = Hashtbl.create 8 in
      let conflict =
        List.concat_map Design.devices designs
        |> List.find_opt (fun (d : Device.t) ->
               match Hashtbl.find_opt by_name d.Device.name with
               | None ->
                 Hashtbl.add by_name d.Device.name d;
                 false
               | Some existing -> existing <> d)
      in
      match conflict with
      | Some d ->
        Error
          (Printf.sprintf
             "device %s has conflicting configurations across members"
             d.Device.name)
      | None ->
        let loaded =
          List.map
            (fun (self : Design.t) ->
              let background =
                union_devices designs
                |> List.filter_map (fun dev ->
                       let extra =
                         List.concat_map
                           (fun (other : Design.t) ->
                             if String.equal other.Design.name self.Design.name
                             then []
                             else
                               Design.demands_on other dev
                               |> List.map (fun l ->
                                      {
                                        Demand.technique =
                                          other.Design.name ^ ": "
                                          ^ l.Demand.technique;
                                        demand = l.Demand.demand;
                                      }))
                           designs
                       in
                       if extra = [] then None
                       else Some (dev.Device.name, extra))
              in
              Design.make ~name:self.Design.name ~workload:self.Design.workload
                ~hierarchy:self.Design.hierarchy ~business:self.Design.business
                ~background ())
            designs
        in
        Ok { members = loaded }
    end

let make_exn designs =
  match make designs with Ok t -> t | Error m -> invalid_arg ("Portfolio: " ^ m)

let members t = t.members

let member t name =
  List.find_opt (fun d -> String.equal d.Design.name name) t.members

let devices t = union_devices t.members

let utilization t =
  List.map
    (fun dev ->
      let demands =
        List.concat_map (fun m -> Design.demands_on m dev) t.members
      in
      (dev, Device.utilization dev demands))
    (devices t)

let overcommitted t =
  List.filter (fun (_, u) -> Device.overcommitted u) (utilization t)

let outlays t =
  (* The first member hosted on a device pays its fixed cost (and the
     fixed share of its spare premium); later tenants pay incremental
     capacity and bandwidth only. *)
  let fixed_paid = Hashtbl.create 8 in
  let per_member =
    List.map
      (fun (m : Design.t) ->
        let o = Cost.outlays m in
        let kept =
          List.filter
            (fun (item : Cost.item) ->
              let fixed_of_device =
                List.find_opt
                  (fun (d : Device.t) ->
                    starts_with ~prefix:(d.Device.name ^ " fixed")
                      item.Cost.component)
                  (Design.devices m)
              in
              match fixed_of_device with
              | None -> true
              | Some d ->
                if Hashtbl.mem fixed_paid d.Device.name then false
                else true)
            o.Cost.items
        in
        List.iter
          (fun (d : Device.t) -> Hashtbl.replace fixed_paid d.Device.name ())
          (Design.devices m);
        ( m.Design.name,
          Money.sum (List.map (fun (i : Cost.item) -> i.Cost.amount) kept) ))
      t.members
  in
  (per_member, Money.sum (List.map snd per_member))

(* Shared by name with [Storage_lint.prune]'s counter: both pre-filters
   report into the one [lint.pruned] metric. *)
let obs_pruned = Storage_obs.Counter.make "lint.pruned"

let lint_members t =
  List.filter
    (fun (m : Design.t) ->
      match Design.validate m with
      | Ok () -> true
      | Error _ ->
        Storage_obs.Counter.incr obs_pruned;
        false)
    t.members

let evaluate t scenario =
  List.map
    (fun (m : Design.t) -> (m.Design.name, Evaluate.run m scenario))
    (lint_members t)

let pp ppf t =
  let per_member, total = outlays t in
  Fmt.pf ppf "@[<v>portfolio of %d designs:@,%a@,%a@,total outlays: %a@]"
    (List.length t.members)
    (Fmt.list ~sep:Fmt.cut (fun ppf (dev, u) ->
         Fmt.pf ppf "  %-14s %a" dev.Device.name Device.pp_utilization u))
    (utilization t)
    (Fmt.list ~sep:Fmt.cut (fun ppf (name, m) ->
         Fmt.pf ppf "  %-24s %a" name Money.pp m))
    per_member Money.pp total
