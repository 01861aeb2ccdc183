open Storage_units

let average_update_rate (t : Trace.t) =
  let d = Duration.to_seconds (Trace.duration t) in
  if d <= 0. then Rate.zero
  else Rate.bytes_per_sec (Size.to_bytes (Trace.total_bytes t) /. d)

let burst_multiplier ?(bucket = Duration.minutes 1.) (t : Trace.t) =
  let span = Duration.to_seconds (Trace.duration t) in
  let b = Duration.to_seconds bucket in
  if span <= 0. || b <= 0. then 1.
  else begin
    let nbuckets = int_of_float (ceil (span /. b)) in
    let counts = Array.make (Stdlib.max 1 nbuckets) 0 in
    Array.iter
      (fun time ->
        let i = Stdlib.min (nbuckets - 1) (int_of_float (time /. b)) in
        counts.(i) <- counts.(i) + 1)
      t.times;
    let peak = Array.fold_left Stdlib.max 0 counts in
    let avg = float_of_int (Array.length t.times) /. span in
    if avg <= 0. then 1. else Float.max 1. (float_of_int peak /. b /. avg)
  end

(* Unique blocks per non-overlapping window, using a seen-bitmap reset per
   window (a generation counter avoids reallocating). *)
let unique_counts (t : Trace.t) win =
  let w = Duration.to_seconds win in
  if w <= 0. then invalid_arg "Trace_stats: non-positive window";
  let span = Duration.to_seconds (Trace.duration t) in
  let nwin = Stdlib.max 1 (int_of_float (ceil (span /. w))) in
  let gen = Array.make t.block_count (-1) in
  let counts = Array.make nwin 0 in
  Array.iteri
    (fun i time ->
      let wi = Stdlib.min (nwin - 1) (int_of_float (time /. w)) in
      let b = t.blocks.(i) in
      if gen.(b) <> wi then begin
        gen.(b) <- wi;
        counts.(wi) <- counts.(wi) + 1
      end)
    t.times;
  counts

let unique_bytes_in_window (t : Trace.t) win ~stat =
  if Trace.event_count t = 0 then Size.zero
  else begin
    let counts = unique_counts t win in
    let bs = Size.to_bytes t.block_size in
    match stat with
    | `Max ->
      Size.bytes (float_of_int (Array.fold_left Stdlib.max 0 counts) *. bs)
    | `Mean ->
      let total = Array.fold_left ( + ) 0 counts in
      Size.bytes (float_of_int total *. bs /. float_of_int (Array.length counts))
  end

let batch_update_rate t win =
  let bytes = unique_bytes_in_window t win ~stat:`Mean in
  Rate.bytes_per_sec (Size.to_bytes bytes /. Duration.to_seconds win)

let batch_curve t ~windows =
  if windows = [] then invalid_arg "Trace_stats.batch_curve: no windows";
  let sorted = List.sort Duration.compare windows in
  let raw =
    List.map (fun w -> (w, unique_bytes_in_window t w ~stat:`Mean)) sorted
  in
  (* Enforce volume monotonicity against sampling noise: a longer window must
     report at least the unique volume of a shorter one. *)
  let _, monotone =
    List.fold_left
      (fun (floor, acc) (w, v) ->
        let v = Size.max floor v in
        (v, (w, Rate.of_size_per v w) :: acc))
      (Size.zero, []) raw
  in
  Batch_curve.of_samples (List.rev monotone)

let to_workload ~name ~windows t =
  let avg_update = average_update_rate t in
  (* Reads per write: cello's 0.29 (1028/799). *)
  let avg_access = Rate.scale (1. +. 0.29) avg_update in
  Workload.make ~name
    ~data_capacity:(Size.scale (float_of_int t.Trace.block_count) t.Trace.block_size)
    ~avg_access_rate:avg_access ~avg_update_rate:avg_update
    ~burst_multiplier:(burst_multiplier t)
    ~batch_curve:(batch_curve t ~windows)
