(* perfbench: the repository's benchmark runner.

     perfbench run --workload W --seed N --seconds S --trace 0|1
                   --ssdep BIN --data DIR --out DIR [--tiny]
     perfbench expect --data DIR     (re)write the committed answers
     perfbench selftest --data DIR --out DIR

   [run] prints every metric by name with its unit, then, as the last
   line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
   run.py builds this executable and is the documented entry point. *)

let workloads = [ "sweep"; "fleet_tape"; "fleet_mirror"; "serve" ]

let run_workload (cfg : Bench.config) =
  match cfg.workload with
  | "sweep" -> Sweep.run cfg
  | "fleet_tape" -> Fleet_wl.run Fleet_wl.Tape cfg
  | "fleet_mirror" -> Fleet_wl.run Fleet_wl.Mirror cfg
  | "serve" -> Serve_wl.run cfg
  | w -> failwith ("unknown workload " ^ w)

let write_lines path lines =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(* The committed expected answers, at the real and the tiny sizes. *)
let expect ~data =
  List.iter
    (fun tiny ->
      write_lines (Sweep.expected_file ~data ~tiny) (Sweep.expect ~tiny);
      List.iter
        (fun kind ->
          write_lines
            (Fleet_wl.digest_file ~data kind ~tiny)
            [ Fleet_wl.expect kind ~tiny ])
        [ Fleet_wl.Tape; Fleet_wl.Mirror ])
    [ false; true ]

(* --- the benchmark's own checks --- *)

(* A synthetic op of [k] kernels reads [k] kernel units, within 5%, as the
   median of 25 trials, each divided by the kernel runs next to it (one
   kernel run varies by tens of percent from the next here). *)
let check_calibration () =
  List.for_all
    (fun k ->
      let trials =
        List.init 25 (fun _ ->
            let c0 = Host.cal () in
            let op = Host.time_kernels k in
            let c1 = Host.cal () in
            op /. ((c0 +. c1) /. 2.))
      in
      let units = Host.median trials in
      let ok = Float.abs (units -. float_of_int k) /. float_of_int k < 0.05 in
      Printf.printf "calibration: %d kernels read %.3f kernel units: %s\n" k units
        (if ok then "ok" else "FAIL");
      ok)
    [ 1; 4; 16 ]

(* A deliberately wrong expected answer is a failed op, not a crash. *)
let check_wrong_answers (cfg : Bench.config) =
  let bad = Filename.concat cfg.out "wrong-answers" in
  if not (Sys.file_exists bad) then Sys.mkdir bad 0o755;
  let corrupt src dst =
    let lines = In_channel.with_open_text src In_channel.input_lines in
    write_lines dst (List.map (fun l -> l ^ "0") lines)
  in
  corrupt
    (Sweep.expected_file ~data:cfg.data ~tiny:true)
    (Sweep.expected_file ~data:bad ~tiny:true);
  List.iter
    (fun kind ->
      corrupt
        (Fleet_wl.digest_file ~data:cfg.data kind ~tiny:true)
        (Fleet_wl.digest_file ~data:bad kind ~tiny:true))
    [ Fleet_wl.Tape; Fleet_wl.Mirror ];
  List.for_all
    (fun workload ->
      let r =
        run_workload { cfg with workload; data = bad; seconds = 0.5; trace = false }
      in
      (* Every sweep op misses its answer; a fleet op's own check still
         passes, only the warm-up op at the default seed misses its digest. *)
      let ok =
        if workload = "sweep" then r.Bench.failed = r.Bench.attempted
        else r.Bench.failed = 1
      in
      Printf.printf "wrong answers, %s: %d of %d ops failed: %s\n" workload
        r.Bench.failed r.Bench.attempted (if ok then "ok" else "FAIL");
      ok)
    [ "sweep"; "fleet_tape"; "fleet_mirror" ]

let selftest cfg =
  let ok = check_calibration () in
  let ok = check_wrong_answers { cfg with Bench.tiny = true } && ok in
  if not ok then exit 1

(* --- command line --- *)

let usage () =
  prerr_endline
    "usage: perfbench run --workload W --seed N --seconds S --trace 0|1 \
     --ssdep BIN --data DIR --out DIR [--tiny]\n\
    \       perfbench expect --data DIR\n\
    \       perfbench selftest --data DIR --out DIR";
  exit 2

let parse args =
  let cfg =
    ref
      {
        Bench.workload = "";
        seed = 1;
        seconds = 10.;
        trace = false;
        tiny = false;
        ssdep = "";
        data = "perfbench/expected";
        out = ".";
      }
  in
  let rec go = function
    | [] -> ()
    | "--tiny" :: rest ->
      cfg := { !cfg with tiny = true };
      go rest
    | flag :: value :: rest ->
      let c = !cfg in
      (cfg :=
         match flag with
         | "--workload" -> { c with workload = value }
         | "--seed" -> { c with seed = int_of_string value }
         | "--seconds" -> { c with seconds = float_of_string value }
         | "--trace" -> { c with trace = value = "1" }
         | "--ssdep" -> { c with ssdep = value }
         | "--data" -> { c with data = value }
         | "--out" -> { c with out = value }
         | _ -> usage ());
      go rest
    | _ -> usage ()
  in
  (try go args with Failure _ -> usage ());
  !cfg

let () =
  (* SIGINT and SIGTERM unwind like an exception, so the serve daemon is
     stopped and waited for on the way out. *)
  Sys.catch_break true;
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> raise Sys.Break));
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args ->
    let cfg = parse args in
    if not (List.mem cfg.workload workloads) then usage ();
    let r = run_workload cfg in
    List.iter
      (fun x ->
        if not (Bench.valid_name x.Bench.name) then
          failwith ("invalid metric name " ^ x.Bench.name))
      r.Bench.metrics;
    Bench.print_result r
  | "expect" :: args -> expect ~data:(parse args).data
  | "selftest" :: args -> selftest (parse args)
  | _ -> usage ()
