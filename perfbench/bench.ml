(* What every workload shares: run configuration, the metric record and
   its printing, the closed loop that times batch ops next to the
   calibration kernel, and the summary of a traced run. *)

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** small inputs, for the benchmark's own tests *)
  ssdep : string;  (** the CLI binary (serve spawns it) *)
  data : string;  (** directory of committed expected answers *)
  out : string;  (** directory for the trace file *)
}

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;
  diagnostics : metric list;  (** printed for humans, not in the result *)
  notes : string list;  (** human-readable lines printed before the result *)
}

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       s

(* Every value as measured, with all its digits. A non-finite value would
   not be JSON; it is reported as 0 with a note instead. *)
let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result r =
  List.iter print_endline r.notes;
  List.iter
    (fun x -> Printf.printf "  %-36s %16.6f %s\n" x.name x.value x.unit)
    (r.metrics @ r.diagnostics);
  let fields =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (number x.value)
          x.unit)
      r.metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed
    (String.concat ", " fields)

(* --- batch ops --- *)

(* [f] on a fresh CLI engine (serial, lint on, the bounded evaluation
   cache), shut down on the way out: what one `ssdep` command runs on. *)
let with_engine f =
  match Storage_optimize.Engine.of_cli ~jobs:(Some 1) ~stats:false () with
  | Error msg -> failwith msg
  | Ok e ->
    Fun.protect
      ~finally:(fun () -> Storage_optimize.Engine.shutdown e)
      (fun () -> f e)

(* One batch op: [run] is the timed part; [check] runs after it, outside
   the timed region, and says whether the answer was right. *)
type 'r op = { run : unit -> 'r; check : 'r -> bool }

type sample = {
  wall : float;  (** seconds *)
  cpu : float;  (** process CPU seconds *)
  cal : float;  (** kernel seconds measured next to this op *)
  ok : bool;
  minor_words : float;
  promoted_words : float;
  major_collections : int;
}

(* Run one op in the measured regime: compact the heap, time the kernel,
   time the op (wall and process CPU, GC counters around it), time the
   kernel again, then check the answer. *)
let timed op =
  Gc.compact ();
  let cal_before = Host.cal () in
  let gc0 = Gc.quick_stat () in
  let cpu0 = Host.cpu_self () in
  let t0 = Host.now () in
  let r = op.run () in
  let t1 = Host.now () in
  let cpu1 = Host.cpu_self () in
  let gc1 = Gc.quick_stat () in
  let cal_after = Host.cal () in
  {
    wall = t1 -. t0;
    cpu = cpu1 -. cpu0;
    cal = (cal_before +. cal_after) /. 2.;
    ok = op.check r;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
  }

(* The closed loop: op [i + 1] starts when op [i] has returned and been
   checked, until [seconds] have elapsed (at least [min_ops] ops). *)
let closed_loop ?(min_ops = 3) ~seconds (next : int -> 'r op) =
  let t_end = Host.now () +. seconds in
  let rec go i acc =
    if i >= min_ops && Host.now () >= t_end then List.rev acc
    else go (i + 1) (timed (next i) :: acc)
  in
  go 0 []

(* [setups k f]: run the set-up [k] times, each between two kernel runs,
   and return the median set-up time with the last set-up's value
   ([discard] gets the others, outside the timed region). The time is in
   reference seconds: kernel units times {!Host.reference_kernel_s}. *)
let setups ?(discard = ignore) k f =
  let rec go i times =
    Gc.compact ();
    let c0 = Host.cal () in
    let t0 = Host.now () in
    let v = f () in
    let dt = Host.now () -. t0 in
    let c1 = Host.cal () in
    let times = dt /. ((c0 +. c1) /. 2.) *. Host.reference_kernel_s :: times in
    if i + 1 = k then (Host.median times, v)
    else begin
      discard v;
      go (i + 1) times
    end
  in
  go 0 []

let cal_units samples = List.map (fun s -> s.wall /. s.cal) samples

(* The end-to-end metrics of a batch workload (tracing off). CPU time is
   calibrated op by op, like wall time: a run-level kernel median let it
   drift by 13% between host phases. *)
let batch_metrics ~setup_s samples =
  [
    m "setup_s" "s" setup_s;
    m "op_cal_p50" "kernel" (Host.median (cal_units samples));
    m "cpu_cal_per_op" "kernel"
      (Host.median (List.map (fun s -> s.cpu /. s.cal) samples));
    m "peak_rss_mb" "MiB" (Host.peak_rss_mb "self");
  ]

(* Ops the traced run replays: the first ones of the untraced run, always
   the same for a seed, so the replay's counts repeat exactly. *)
let replayed_ops = 6

(* The traced run's replays, each after a compaction and between two
   kernel runs. [replay k] replays untraced op [k] inside an "op" span and
   returns the check, run after the timing, that it reproduced that op's
   result. Returns (seconds, kernel seconds, k) per replay, the GC seconds
   inside the replays, and how many failed. *)
let replays ~n sp gc replay =
  let gc_time = ref 0. and failed = ref 0 in
  let traced =
    List.init replayed_ops (fun i ->
        let k = i mod n in
        Spans.set_op sp (i + 1);
        Gc.compact ();
        let c0 = Host.cal () in
        let g0 = Spans.gc_seconds gc in
        let t0 = Host.now () in
        let check = Spans.span sp "op" (fun () -> replay k) in
        let dt = Host.now () -. t0 in
        gc_time := !gc_time +. Spans.gc_seconds gc -. g0;
        let c1 = Host.cal () in
        if not (check ()) then incr failed;
        (dt, (c0 +. c1) /. 2., k))
  in
  (traced, !gc_time, !failed)

let tail_note ~what ~q units =
  let k = Host.beyond units q in
  if k >= 10 then []
  else
    [
      Printf.sprintf
        "warning: only %d %s lie beyond the p%g; the tail is not resolved" k
        what (q *. 100.);
    ]

let failures samples = List.length (List.filter (fun s -> not s.ok) samples)

(* The diagnostics of the untraced ops: their tails in kernel units, raw
   milliseconds and GC counters. Printed for humans after an untraced run,
   and per-layer metrics of a traced run (from its untraced half). The
   p99 needs about a thousand samples, so only serve reports it. *)
let diagnostics ~batch samples =
  let n = float_of_int (List.length samples) in
  let ms = List.map (fun s -> s.wall *. 1e3) samples in
  let units = cal_units samples in
  let per_op f = if batch then Host.sum (List.map f samples) /. n else 0. in
  [
    m "op_cal_p90" "kernel" (Host.percentile units 0.9);
    m "op_cal_p99" "kernel" (if batch then 0. else Host.percentile units 0.99);
    m "host.cal_ms_p50" "ms" (Host.median (List.map (fun s -> s.cal *. 1e3) samples));
    m "host.op_ms_p50" "ms" (Host.median ms);
    m "host.op_ms_p90" "ms" (Host.percentile ms 0.9);
    m "host.op_ms_p99" "ms" (if batch then 0. else Host.percentile ms 0.99);
    m "host.cpu_ms_per_op" "ms" (Host.sum (List.map (fun s -> s.cpu) samples) /. n *. 1e3);
    m "host.ops" "count" n;
    m "gc.minor_mw_per_op" "Mw" (per_op (fun s -> s.minor_words /. 1e6));
    m "gc.promoted_mw_per_op" "Mw" (per_op (fun s -> s.promoted_words /. 1e6));
    m "gc.major_collections_per_op" "count"
      (per_op (fun s -> float_of_int s.major_collections));
  ]

(* The per-layer names every workload reports, so that each traced run
   prints the same set; a layer a workload does not cross reads 0. *)
let per_layer_names =
  [
    (* sweep *)
    "optimize.candidates"; "optimize.enumerate.share"; "lint.accepts.share";
    "lint.accept_ratio"; "model.fingerprint.share"; "model.cache.share";
    "model.cache.hit_ratio"; "model.cache.evictions"; "model.evaluate.share";
    "model.evaluations"; "model.stage.utilization.share";
    "model.stage.data_loss.share"; "model.stage.recovery_time.share";
    "model.stage.cost.share"; "optimize.summarize.share";
    "optimize.pareto.share"; "optimize.frontier_size";
    "optimize.feasible_ratio"; "optimize.alloc_mw"; "model.alloc_mw";
    (* fleet *)
    "fleet.trials"; "fleet.trials_quiet"; "fleet.trials_single";
    "fleet.trials_multi"; "fleet.events_sampled"; "fleet.sample.share";
    "fleet.trial_quiet.share"; "fleet.trial_single.share";
    "fleet.trial_multi.share"; "fleet.aggregate.share";
    "fleet.full_horizon_fallbacks"; "fleet.alloc_mw"; "sim.run.share";
    "sim.runs"; "sim.events"; "sim.events_per_run"; "sim.flow_advances";
    "sim.multi_runs"; "sim.recovery_replans"; "sim.alloc_mw";
    (* serve *)
    "serve.requests"; "serve.rejected_busy"; "serve.bad_requests";
    "serve.errors"; "serve.handler.share"; "serve.transport.share";
    "spec.parse.share"; "report.render.share"; "client.latency_cal_p50";
    "client.late_ms_p99"; "client.inflight_max";
    (* every workload *)
    "gc.minor_mw_per_op"; "gc.promoted_mw_per_op";
    "gc.major_collections_per_op"; "gc.share"; "trace.overhead";
    "trace.coverage"; "op_cal_p90"; "op_cal_p99"; "host.cal_ms_p50"; "host.op_ms_p50"; "host.op_ms_p90";
    "host.op_ms_p99"; "host.cpu_ms_per_op"; "host.ops";
  ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if String.starts_with ~prefix:"op_cal_" name || ends "_cal_p50" then "kernel"
  else if ends ".share" || ends "_ratio" || name = "trace.overhead"
     || name = "trace.coverage"
  then "ratio"
  else if ends "_mw" || ends "_mw_per_op" then "Mw"
  else if ends "_ms" || ends "_ms_p50" || ends "_ms_p90" || ends "_ms_p99"
          || ends "_ms_per_op"
  then "ms"
  else "count"

(* Complete a workload's traced metrics: its own values in [given], every
   other per-layer name as 0, in the fixed order above. *)
let per_layer given =
  List.iter
    (fun x ->
      if not (List.mem x.name per_layer_names) || x.unit <> unit_of x.name then
        invalid_arg ("Bench.per_layer: unlisted metric or unit " ^ x.name))
    given;
  List.map
    (fun name ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x -> x
      | None -> m name (unit_of name) 0.)
    per_layer_names

(* The share of traced op time spent in each named span, summed by name;
   the names are the layers' public calls. *)
let share spans ~op_time names =
  Host.ratio (Host.sum (List.map (Spans.self_time spans) names)) op_time

(* Tracing overhead: the replayed ops' summed kernel units over the same
   ops' summed untraced kernel units, minus 1. [traced] holds (seconds,
   kernel seconds, index of the untraced op). *)
let overhead samples traced =
  let untraced = Array.of_list (cal_units samples) in
  Host.ratio
    (Host.sum (List.map (fun (t, c, _) -> t /. c) traced))
    (Host.sum (List.map (fun (_, _, k) -> untraced.(k)) traced))
  -. 1.
