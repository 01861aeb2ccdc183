open Storage_units

type representation = Full | Cumulative | Differential

type windows = {
  accumulation : Duration.t;
  propagation : Duration.t;
  hold : Duration.t;
}

let windows ~acc ?(prop = Duration.zero) ?(hold = Duration.zero) () =
  if Duration.is_zero acc then invalid_arg "Schedule.windows: zero accW";
  if Duration.compare prop acc > 0 then
    invalid_arg "Schedule.windows: propW exceeds accW (level cannot keep up)";
  { accumulation = acc; propagation = prop; hold }

type t = {
  full : windows;
  secondary : (representation * windows) option;
  cycle_count : int;
  retention_count : int;
  copy_representation : representation;
}

let make ~full ?secondary ?(cycle_count = 0) ~retention_count
    ?(copy_representation = Full) () =
  if retention_count < 1 then
    invalid_arg "Schedule.make: retention count below 1";
  (match (secondary, cycle_count) with
  | None, 0 -> ()
  | None, _ -> invalid_arg "Schedule.make: cycle_count without secondary"
  | Some _, n when n <= 0 ->
    invalid_arg "Schedule.make: secondary requires positive cycle_count"
  | Some (Full, _), _ ->
    invalid_arg "Schedule.make: secondary representation cannot be Full"
  | Some _, _ -> ());
  { full; secondary; cycle_count; retention_count; copy_representation }

let simple ~acc ?prop ?hold ~retention_count () =
  make ~full:(windows ~acc ?prop ?hold ()) ~retention_count ()

let cycle_period t =
  match t.secondary with
  | None -> t.full.accumulation
  | Some (_, w) ->
    Duration.add t.full.accumulation
      (Duration.scale (float_of_int t.cycle_count) w.accumulation)

let retention_window t =
  Duration.scale (float_of_int t.retention_count) (cycle_period t)

let retention_span t =
  Duration.scale (float_of_int (t.retention_count - 1)) (cycle_period t)

let rp_interval_min t =
  match t.secondary with
  | None -> t.full.accumulation
  | Some (_, w) -> Duration.min t.full.accumulation w.accumulation

let propagation_max t =
  match t.secondary with
  | None -> t.full.propagation
  | Some (_, w) -> Duration.max t.full.propagation w.propagation

let onward_windows t = t.full

(* [Duration.sum]'s additions, from zero and left to right, without its
   argument list: this runs for every level of every candidate. *)
let worst_lag t ~upstream =
  Duration.add
    (Duration.add
       (Duration.add (Duration.add Duration.zero upstream) t.full.hold)
       (propagation_max t))
    (rp_interval_min t)

let best_lag t ~upstream =
  let own =
    match t.secondary with
    | None -> Duration.add t.full.hold t.full.propagation
    | Some (_, w) ->
      Duration.min
        (Duration.add t.full.hold t.full.propagation)
        (Duration.add w.hold w.propagation)
  in
  Duration.add upstream own

let pp_representation ppf = function
  | Full -> Fmt.string ppf "full"
  | Cumulative -> Fmt.string ppf "cumulative"
  | Differential -> Fmt.string ppf "differential"

let pp_windows ppf w =
  Fmt.pf ppf "acc=%a prop=%a hold=%a" Duration.pp w.accumulation Duration.pp
    w.propagation Duration.pp w.hold

let pp ppf t =
  Fmt.pf ppf "@[<h>full(%a)%a retCnt=%d retW=%a@]" pp_windows t.full
    (Fmt.option (fun ppf (r, w) ->
         Fmt.pf ppf " + %dx %a(%a)" t.cycle_count pp_representation r
           pp_windows w))
    t.secondary t.retention_count Duration.pp (retention_window t)
