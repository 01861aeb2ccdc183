(* ssdep: storage system dependability evaluator.

   Command-line front end for the DSN 2004 "Framework for Evaluating
   Storage System Dependability" reproduction: evaluate designs under
   failure scenarios, reproduce the paper's tables, run the discrete-event
   simulator, and search the design space. *)

open Cmdliner
open Storage_units
open Storage_device
open Storage_model
open Storage_presets

let designs = Whatif.all

let find_design designs name =
  match List.assoc_opt name designs with
  | Some d -> Ok d
  | None ->
    Error
      (Printf.sprintf "unknown design %S; available: %s" name
         (String.concat ", " (List.map fst designs)))

let scenario_of_scope ~target_age scope_name =
  let target_age = Duration.hours target_age in
  match scope_name with
  | "object" ->
    let age =
      if Duration.is_zero target_age then Duration.hours 24. else target_age
    in
    Ok
      (Scenario.make ~scope:Location.Data_object ~target_age:age
         ~object_size:(Size.mib 1.) ())
  | "array" ->
    Ok (Scenario.make ~scope:(Location.Device "disk-array") ~target_age ())
  | "site" -> Ok (Scenario.make ~scope:(Location.Site "primary") ~target_age ())
  | other ->
    Error (Printf.sprintf "unknown scope %S (object|array|site)" other)

(* --- common options --- *)

let design_arg designs =
  let doc =
    Printf.sprintf "Design to evaluate. One of: %s."
      (String.concat ", "
         (List.map (fun (n, _) -> Printf.sprintf "$(b,%s)" n) designs))
  in
  Arg.(value & opt string "baseline" & info [ "d"; "design" ] ~docv:"NAME" ~doc)

let scope_arg =
  let doc = "Failure scope: $(b,object), $(b,array) or $(b,site)." in
  Arg.(value & opt string "array" & info [ "s"; "scope" ] ~docv:"SCOPE" ~doc)

let non_negative s =
  match float_of_string_opt s with
  | Some x when Float.is_finite x && x >= 0. -> Ok x
  | Some _ | None -> Error (Printf.sprintf "%S is not a finite number >= 0" s)

let float_conv parse =
  Arg.conv
    ( (fun s -> Result.map_error (fun m -> `Msg m) (parse s)),
      Format.pp_print_float )

let non_negative_float_conv = float_conv non_negative

(* Durations go through the parser `serve /optimize` reads its objectives
   with: a finite count >= 0 whose seconds are finite too. *)
let hours_conv = float_conv Optimize_request.hours

let days_conv =
  float_conv (Optimize_request.duration ~unit:"days" Duration.days)

let years_conv =
  float_conv (Optimize_request.duration ~unit:"years" Duration.years)

let seed_conv =
  let parse s =
    match Int64.of_string_opt s with
    | Some n -> Ok n
    | None ->
      Error (`Msg (Printf.sprintf "invalid seed %S, expected an integer" s))
  in
  Arg.conv (parse, fun ppf n -> Fmt.pf ppf "0x%Lx" n)

(* The preset designs' named failure scenarios (lint and report). *)
let baseline_scenarios =
  [
    ("user error", Baseline.scenario_object);
    ("array failure", Baseline.scenario_array);
    ("site disaster", Baseline.scenario_site);
  ]

let target_age_arg =
  let doc =
    "Recovery target age in hours before the failure (0 = just before; \
     object scope defaults to 24)."
  in
  Arg.(value & opt hours_conv 0. & info [ "target-age" ] ~docv:"HOURS" ~doc)

(* Configuration problems (malformed environment, unreadable input
   files) claim the documented exit code 2 directly — the same code
   `ssdep lint` uses for errors and `ssdep fuzz` for bad usage — rather
   than going through cmdliner's 124 reserved for command-line parse
   errors. *)
let config_error msg =
  Fmt.epr "ssdep: %s@." msg;
  Format.pp_print_flush Format.std_formatter ();
  Stdlib.exit 2

(* Design files are loaded, with their [scenario] sections, through one
   helper so every subcommand agrees: a missing or unreadable path is a
   configuration error (exit 2, message names the file), a file that reads
   but does not parse is an ordinary command error (cmdliner's error
   path). *)
let load ?validate path =
  match Storage_spec.Spec.load_file ?validate path with
  | Ok loaded -> Ok loaded
  | Error (Storage_spec.Spec.Unreadable m) -> config_error m
  | Error (Storage_spec.Spec.Invalid m) -> Error m

(* --jobs and SSDEP_JOBS share Engine.parse_jobs, so the flag and the
   environment variable accept exactly the same language; the variable
   itself is resolved (and rejected with exit 2) in Engine.of_cli. *)
let jobs_conv =
  let parse s =
    Result.map_error
      (fun m -> `Msg m)
      (Storage_optimize.Engine.parse_jobs s)
  in
  Arg.conv (parse, Fmt.int)

let int_at_least lo ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo -> Ok n
    | Some _ | None ->
      Error
        (`Msg
           (Printf.sprintf "invalid count %S, expected a %s integer" s what))
  in
  Arg.conv (parse, Fmt.int)

let positive_int_conv = int_at_least 1 ~what:"positive"
let non_negative_int_conv = int_at_least 0 ~what:"non-negative"

let jobs_arg =
  let doc =
    "Evaluate on $(docv) domains in parallel (default 1 = serial). The \
     $(b,SSDEP_JOBS) environment variable supplies the default when the \
     flag is absent; a malformed value there is a configuration error \
     (exit 2), never a silent serial fallback. Results are identical to \
     a serial run, whatever the value."
  in
  Arg.(
    value & opt (some jobs_conv) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* --- engine statistics (observability layer) --- *)

let stats_arg =
  let doc =
    "Record engine statistics (per-stage evaluation timings, cache hit \
     rates, per-domain task counts, simulator event counts) and print \
     them as a table after the command's output. Recording never changes \
     a result."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let stats_json_arg =
  let doc =
    "Write the recorded engine statistics as a JSON snapshot to $(docv) \
     (implies recording, independently of $(b,--stats))."
  in
  Arg.(value & opt (some string) None & info [ "stats-json" ] ~docv:"FILE" ~doc)

(* Wrap a command body: enable recording up front when asked, and emit the
   table / JSON snapshot after a successful run. *)
let with_stats stats stats_json body =
  let wanted = stats || stats_json <> None in
  if wanted then Storage_obs.enable ();
  let result = body () in
  (match result with
  | Ok () when wanted -> (
    if stats then Fmt.pr "@.%s@." (Fmt.str "%a" Storage_obs.pp_table ());
    match stats_json with
    | None -> Ok ()
    | Some path -> (
      match
        Out_channel.with_open_text path (fun oc ->
            output_string oc
              (Storage_report.Json.to_string_pretty (Storage_obs.snapshot ()));
            output_char oc '\n')
      with
      | () ->
        Fmt.pr "stats written to %s@." path;
        Ok ()
      | exception Sys_error m -> Error m))
  | other -> other)

(* One construction point for the execution engine: --jobs (or
   SSDEP_JOBS) and --stats flow through [Engine.of_cli], and the command
   body receives a ready engine that is shut down on the way out. A
   malformed SSDEP_JOBS surfaces here as a configuration error. *)
let with_engine ~jobs ~stats ~stats_json body =
  with_stats stats stats_json @@ fun () ->
  match
    Storage_optimize.Engine.of_cli ~jobs
      ~stats:(stats || stats_json <> None)
      ()
  with
  | Error msg -> config_error msg
  | Ok engine ->
    Fun.protect
      ~finally:(fun () -> Storage_optimize.Engine.shutdown engine)
      (fun () -> body engine)

(* --- tables --- *)

let tables_cmd =
  let only =
    let doc =
      "Print a single artifact: table2..table7 or figure1..figure5."
    in
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"NAME" ~doc)
  in
  let run only =
    match only with
    | None ->
      print_endline (Paper_tables.all ());
      Ok ()
    | Some name -> (
      match List.assoc_opt name Paper_tables.artifacts with
      | Some render ->
        print_endline (render ());
        Ok ()
      | None -> Error (Printf.sprintf "unknown artifact %S" name))
  in
  let term = Term.(const run $ only) in
  let info =
    Cmd.info "tables" ~doc:"Reproduce the paper's tables and figures."
  in
  Cmd.v info Term.(term_result' term)

(* Non-error lint findings shown alongside textual evaluation output: the
   numbers are still valid (errors would not be), but the design deserves
   a second look. *)
let print_advisories d =
  let found = Storage_lint.check_design d in
  List.iter
    (fun diag -> Fmt.pr "lint: %a@." Storage_lint.Diagnostic.pp diag)
    (Storage_lint.warnings found @ Storage_lint.infos found)

(* --- evaluate --- *)

let file_arg =
  let doc =
    "Load the design (and its [scenario] sections) from a design-language \
     file instead of a preset; see examples/designs/."
  in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc = "Emit machine-readable JSON instead of the textual report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let evaluate_cmd =
  let print_reports json d named =
    if json then
      print_endline
        (Storage_report.Json.to_string_pretty (Json_output.reports named))
    else begin
      print_advisories d;
      List.iter
        (fun (name, r) ->
          Fmt.pr "--- scenario %s ---@.%a@.@." name Evaluate.pp r)
        named
    end
  in
  let run design file scope target_age json stats stats_json =
    with_stats stats stats_json @@ fun () ->
    match file with
    | Some path -> (
      match load path with
      | Error e -> Error e
      | Ok (d, []) -> (
        match scenario_of_scope ~target_age scope with
        | Error e ->
          Error
            (e ^ " (the file defines no [scenario] sections to use instead)")
        | Ok scenario ->
          print_reports json d [ (scope, Evaluate.run d scenario) ];
          Ok ())
      | Ok (d, scenarios) ->
        (* The evaluation `serve /evaluate` runs, so the two agree byte
           for byte. *)
        let names, scenarios = List.split scenarios in
        print_reports json d (List.combine names (Evaluate.run_all d scenarios));
        Ok ())
    | None -> (
      match find_design designs design with
      | Error e -> Error e
      | Ok d -> (
        match scenario_of_scope ~target_age scope with
        | Error e -> Error e
        | Ok scenario ->
          let report = Evaluate.run d scenario in
          if json then
            print_endline
              (Storage_report.Json.to_string_pretty
                 (Json_output.report report))
          else begin
            print_advisories d;
            Fmt.pr "%a@." Evaluate.pp report
          end;
          Ok ()))
  in
  let term =
    Term.(
      const run $ design_arg designs $ file_arg $ scope_arg $ target_age_arg
      $ json_arg $ stats_arg $ stats_json_arg)
  in
  let info =
    Cmd.info "evaluate"
      ~doc:
        "Evaluate a design under failure scenarios (full report). Designs \
         come from the built-in presets or from a design-language file."
  in
  Cmd.v info Term.(term_result' term)

(* --- check --- *)

let check_cmd =
  let file =
    let doc = "Design-language file to parse and validate." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run path =
    match load path with
    | Error e -> Error e
    | Ok (d, scenarios) ->
      Fmt.pr "%a@.@." Design.pp d;
      Fmt.pr "%a@." Utilization.pp (Utilization.compute d);
      let warnings =
        Storage_hierarchy.Hierarchy.warnings d.Design.hierarchy
      in
      List.iter (Fmt.pr "warning: %s@.") warnings;
      List.iter (fun (name, _) -> Fmt.pr "scenario: %s@." name) scenarios;
      Fmt.pr "design OK@.";
      Ok ()
  in
  let info =
    Cmd.info "check"
      ~doc:"Parse a design-language file and validate the design."
  in
  Cmd.v info Term.(term_result' Term.(const run $ file))

(* --- lint --- *)

let lint_cmd =
  let target =
    let doc =
      "Design to lint: a design-language file (checked together with its \
       [scenario] sections) when $(docv) names an existing file, otherwise \
       a preset design checked under the three baseline failure scenarios."
    in
    Arg.(value & pos 0 string "baseline" & info [] ~docv:"DESIGN" ~doc)
  in
  let deny_warnings =
    let doc = "Exit nonzero on warnings too, not only on errors (for CI)." in
    Arg.(value & flag & info [ "deny-warnings" ] ~doc)
  in
  let run target json deny_warnings =
    let loaded =
      if Sys.file_exists target && not (Sys.is_directory target) then
        load ~validate:false target
      else
        match find_design designs target with
        | Error e -> config_error (e ^ " (and no such file)")
        | Ok d -> Ok (d, baseline_scenarios)
    in
    match loaded with
    | Error e -> Error e
    | Ok (d, scenarios) ->
      let found = Storage_lint.check ~scenarios d in
      if json then
        print_endline
          (Storage_report.Json.to_string_pretty
             (Storage_lint.to_json ~design:d.Design.name found))
      else Fmt.pr "%a@." Storage_lint.pp found;
      (match Storage_lint.exit_code ~deny_warnings found with
      | 0 -> Ok ()
      | code ->
        (* Findings are a reportable outcome, not a CLI failure: claim the
           documented exit codes (1 = warnings denied, 2 = errors) directly
           rather than going through cmdliner's error path. *)
        Format.pp_print_flush Format.std_formatter ();
        Stdlib.exit code)
  in
  let term = Term.(const run $ target $ json_arg $ deny_warnings) in
  let info =
    Cmd.info "lint"
      ~doc:
        "Statically analyze a design against the SSDEP rule set: stable \
         rule codes, severities and structured locations, as a table or \
         JSON. Exits 2 when errors are found, 1 for warnings under \
         $(b,--deny-warnings), 0 when clean. This command checks storage \
         $(i,designs); the separate $(b,sslint) tool checks this \
         project's own OCaml sources (SA rules)."
  in
  Cmd.v info Term.(term_result' term)

(* --- simulate --- *)

let simulate_cmd =
  let warmup =
    let doc =
      "Normal-mode warmup before the failure, in days: at most 10^7 \
       intervals between the retrieval points of the design's most \
       frequent level."
    in
    Arg.(value & opt days_conv 84. & info [ "warmup" ] ~docv:"DAYS" ~doc)
  in
  let sweep =
    let doc =
      "Run N additional simulations with the failure instant swept across \
       one backup cycle, reporting min/max measured loss. At most 1000: \
       each is a whole run, warmup included."
    in
    Arg.(value & opt non_negative_int_conv 0 & info [ "sweep" ] ~docv:"N" ~doc)
  in
  let outage =
    let doc =
      "Suppress the technique at LEVEL for the last HOURS of the warmup \
       (format LEVEL:HOURS), injecting the failure during the outage."
    in
    Arg.(value & opt (some string) None & info [ "outage" ] ~docv:"LEVEL:HOURS" ~doc)
  in
  (* LEVEL must name one of the design's protection levels (1 .. n-1;
     level 0 is the primary copy). *)
  let parse_outage ~levels = function
    | None -> Ok None
    | Some raw -> (
      match String.split_on_char ':' raw with
      | [ level; hours ] -> (
        match (int_of_string_opt level, Optimize_request.hours hours) with
        | Some level, Ok hours ->
          if level >= 1 && level < levels then
            Ok (Some (level, Duration.hours hours))
          else
            Error
              (Printf.sprintf
                 "outage level %d out of range: this design's protection \
                  levels are 1..%d"
                 level (levels - 1))
        | _ -> Error (Printf.sprintf "malformed outage %S" raw))
      | _ -> Error (Printf.sprintf "outage must be LEVEL:HOURS, got %S" raw))
  in
  let trace =
    let doc = "Print the last N simulated events (captures, propagations, \
               recovery milestones)."
    in
    Arg.(value & opt non_negative_int_conv 0 & info [ "trace" ] ~docv:"N" ~doc)
  in
  let run design scope target_age warmup sweep outage trace jobs stats
      stats_json =
    with_engine ~jobs ~stats ~stats_json @@ fun engine ->
    match find_design designs design with
    | Error e -> Error e
    | Ok d -> (
      match scenario_of_scope ~target_age scope with
      | Error e -> Error e
      | Ok scenario ->
      match
        parse_outage
          ~levels:(Storage_hierarchy.Hierarchy.length d.Design.hierarchy)
          outage
      with
      | Error e -> Error e
      | Ok outage ->
      if sweep > Storage_sim.Sim.max_sweep_runs then
        Error
          (Printf.sprintf
             "--sweep %d: each swept phase is a whole run; a sweep runs at \
              most %d"
             sweep Storage_sim.Sim.max_sweep_runs)
      else
      match Storage_sim.Sim.shortest_rp_interval d with
      | Some (level, interval)
        when Duration.ratio (Duration.days warmup) interval
             > Storage_sim.Sim.max_warmup_intervals ->
        Error
          (Printf.sprintf
             "--warmup %g days spans %g retrieval-point intervals of level \
              %d (every %s); a run simulates at most %g"
             warmup
             (Duration.ratio (Duration.days warmup) interval)
             level (Duration.to_string interval)
             Storage_sim.Sim.max_warmup_intervals)
      | _ ->
        let config =
          { Storage_sim.Sim.warmup = Duration.days warmup; outage;
            record_events = trace > 0 }
        in
        let show tag (m : Storage_sim.Sim.measured) =
          Fmt.pr "%s: source=%a measured DL=%a measured RT=%a@." tag
            Fmt.(option ~none:(any "none") int)
            m.Storage_sim.Sim.source_level Data_loss.pp_loss
            m.Storage_sim.Sim.data_loss
            Fmt.(option ~none:(any "n/a") Duration.pp)
            m.Storage_sim.Sim.recovery_time
        in
        let m = Storage_sim.Sim.run ~config d scenario in
        show "simulated" m;
        (if trace > 0 then begin
           let events = m.Storage_sim.Sim.timeline in
           let skip = max 0 (List.length events - trace) in
           List.iteri
             (fun i (t, msg) ->
               if i >= skip then
                 Fmt.pr "  t=%a %s@." Duration.pp t msg)
             events
         end);
        let model = Evaluate.run d scenario in
        Fmt.pr "model:     worst-case DL=%a RT=%a@." Data_loss.pp_loss
          model.Evaluate.data_loss.Data_loss.loss Duration.pp
          model.Evaluate.recovery_time;
        (match outage with
        | Some (level, duration) ->
          let degraded =
            Degraded.evaluate d ~disabled_level:level ~outage:duration
              scenario
          in
          Fmt.pr "degraded:  worst-case DL=%a (level %d down %a)@."
            Data_loss.pp_loss degraded.Degraded.data_loss.Data_loss.loss level
            Duration.pp duration
        | None -> ());
        if sweep > 0 then begin
          let offsets =
            List.init sweep (fun i ->
                Duration.hours (float_of_int (i + 1) *. 168. /. float_of_int sweep))
          in
          let runs =
            Storage_sim.Sim.sweep_failure_phase ~engine ~config d scenario
              ~offsets
          in
          List.iteri
            (fun i m -> show (Printf.sprintf "sweep %2d" (i + 1)) m)
            runs
        end;
        Ok ())
  in
  let term =
    Term.(
      const run $ design_arg designs $ scope_arg $ target_age_arg $ warmup
      $ sweep $ outage $ trace $ jobs_arg $ stats_arg $ stats_json_arg)
  in
  let info =
    Cmd.info "simulate"
      ~doc:
        "Execute the design in the discrete-event simulator and compare the \
         measured recovery against the analytical worst case."
  in
  Cmd.v info Term.(term_result' term)

(* --- optimize --- *)

let optimize_cmd =
  let rto =
    let doc = "Recovery time objective in hours (constraint)." in
    Arg.(value & opt (some hours_conv) None & info [ "rto" ] ~docv:"HOURS" ~doc)
  in
  let rpo =
    let doc = "Recovery point objective in hours (constraint)." in
    Arg.(value & opt (some hours_conv) None & info [ "rpo" ] ~docv:"HOURS" ~doc)
  in
  let top_k =
    let doc =
      "Keep only the $(docv) cheapest feasible designs (streaming \
       truncation: search memory stays O(frontier + K) however large \
       the grid) and print them after the frontier."
    in
    Arg.(value & opt (some positive_int_conv) None
         & info [ "top-k" ] ~docv:"K" ~doc)
  in
  let grid_scale =
    let doc =
      "Densify the candidate grid (O($(docv)^3) candidates; 1 = the \
       default ~100-design grid). Large grids are meant for --top-k \
       streaming searches."
    in
    Arg.(value & opt positive_int_conv 1 & info [ "grid-scale" ] ~docv:"S" ~doc)
  in
  let max_candidates =
    let doc =
      "Refuse to search a grid with more than $(docv) candidate designs \
       (counted lazily before evaluating anything)."
    in
    Arg.(value & opt (some positive_int_conv) None
         & info [ "max-candidates" ] ~docv:"N" ~doc)
  in
  let solver_arg =
    let doc =
      "Search method: $(b,grid) evaluates the whole grid (the streaming \
       reference), $(b,anneal) runs seeded simulated annealing within \
       $(b,--budget) proposals, $(b,bnb) runs branch-and-bound pruning \
       subtrees with the lint feasibility frontier and a monotone cost \
       bound. All methods report byte-identically whatever $(b,--jobs) is."
    in
    let method_conv =
      Arg.conv
        ( (fun s ->
            Result.map_error
              (fun m -> `Msg m)
              (Storage_optimize.Solver.method_of_string s)),
          fun ppf m ->
            Fmt.string ppf (Storage_optimize.Solver.method_name m) )
    in
    Arg.(value & opt method_conv Storage_optimize.Solver.Grid
         & info [ "solver" ] ~docv:"METHOD" ~doc)
  in
  let budget_arg =
    let doc =
      "Annealing proposal budget (grid-cell visits; ignored by \
       $(b,--solver grid) and $(b,bnb)). A budget of 4x the grid makes \
       annealing provably exhaustive; a larger budget never returns a \
       worse design than a smaller one."
    in
    Arg.(value & opt (some positive_int_conv) None
         & info [ "budget" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc =
      "Solver seed (decimal or 0x-hex; default: the framework's fixed \
       seed). A fixed seed reproduces the report byte-for-byte whatever \
       $(b,--jobs) is."
    in
    Arg.(value & opt (some seed_conv) None & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let portfolio_arg =
    let doc =
      "Optimize the object class described by this design file jointly \
       with the other $(docv) members (repeatable): each member gets its \
       own design, members price each other's load on the shared \
       hardware, and the assignment rolls up into one site-level summary."
    in
    Arg.(value & opt_all file [] & info [ "portfolio" ] ~docv:"FILE" ~doc)
  in
  let run rto rpo top_k grid_scale max_candidates solver budget seed portfolio
      json jobs stats stats_json =
    with_engine ~jobs ~stats ~stats_json @@ fun engine ->
    let module Solver = Storage_optimize.Solver in
    let request = { Optimize_request.rto; rpo; top_k; grid_scale } in
    let kit, space, scenarios = Optimize_request.problem request in
    let legacy = solver = Solver.Grid && portfolio = [] && not json in
    if (top_k <> None || max_candidates <> None) && not legacy then
      Error
        "--top-k and --max-candidates apply to the default grid search \
         only (no --solver, --portfolio or --json)"
    else if portfolio <> [] && (rto <> None || rpo <> None) then
      Error
        "--rto/--rpo conflict with --portfolio: each member's objectives \
         come from its design file"
    else if legacy then begin
      let over_budget =
        (* Enumeration is lazy and persistent, so counting here builds one
           design at a time and retains none of them. *)
        Option.bind max_candidates (fun bound ->
            let n =
              Seq.length (Storage_optimize.Candidate.enumerate kit space)
            in
            if n > bound then
              Some
                (Printf.sprintf
                   "grid has %d candidate designs, over the --max-candidates \
                    budget of %d; raise the budget or lower --grid-scale"
                   n bound)
            else None)
      in
      match over_budget with
      | Some msg -> Error msg
      | None ->
        print_string (Optimize_request.listing ~engine request);
        Ok ()
    end
    else if portfolio = [] then begin
      let result =
        Solver.run ~engine ?budget ?seed ~method_:solver kit space scenarios
      in
      if json then
        print_endline
          (Storage_report.Json.to_string_pretty (Solver.to_json result))
      else Fmt.pr "%a@." Solver.pp result;
      Ok ()
    end
    else begin
      let ( let* ) = Result.bind in
      let* members =
        List.fold_left
          (fun acc path ->
            let* acc = acc in
            let* d, _ = load path in
            Ok (Solver.member_of_design d :: acc))
          (Ok []) portfolio
        |> Result.map List.rev
      in
      let labels = List.map (fun m -> m.Solver.label) members in
      if
        List.length labels
        <> List.length (List.sort_uniq String.compare labels)
      then Error "--portfolio members must have distinct design names"
      else begin
        let result =
          Solver.solve_portfolio ~engine ?budget ?seed ~method_:solver ~kit
            ~space ~members scenarios
        in
        if json then
          print_endline
            (Storage_report.Json.to_string_pretty
               (Solver.portfolio_to_json result))
        else Fmt.pr "%a@." Solver.pp_portfolio result;
        Ok ()
      end
    end
  in
  let term =
    Term.(
      const run $ rto $ rpo $ top_k $ grid_scale $ max_candidates $ solver_arg
      $ budget_arg $ seed_arg $ portfolio_arg $ json_arg $ jobs_arg
      $ stats_arg $ stats_json_arg)
  in
  let info =
    Cmd.info "optimize"
      ~doc:
        "Search the design space for the cheapest design meeting the given \
         RTO/RPO under array and site failures — exhaustively, by seeded \
         simulated annealing, or by branch-and-bound; single designs or \
         joint portfolios."
  in
  Cmd.v info Term.(term_result' term)

(* --- characterize --- *)

let characterize_cmd =
  let seed =
    let doc = "PRNG seed for the synthetic trace." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let days =
    let doc = "Length of the generated trace in days." in
    Arg.(value & opt days_conv 7. & info [ "days" ] ~docv:"D" ~doc)
  in
  let save =
    let doc = "Write the generated trace to a CSV file." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let load =
    let doc =
      "Characterize an existing trace CSV instead of generating one."
    in
    Arg.(value & opt (some file) None & info [ "load" ] ~docv:"FILE" ~doc)
  in
  let import =
    let doc =
      "Characterize an external text block-trace (\"time op offset \
       length\" lines) using 64 KiB blocks over a 4 GiB object."
    in
    Arg.(value & opt (some file) None & info [ "import" ] ~docv:"FILE" ~doc)
  in
  let run seed days save load import =
    let open Storage_workload in
    let trace_result =
      match (load, import) with
      | Some _, Some _ -> Error "--load and --import are mutually exclusive"
      | Some path, None -> Trace_io.load_csv ~path
      | None, Some path ->
        Trace_io.import_text ~block_size:(Size.kib 64.)
          ~data_capacity:(Size.gib 4.) ~path
      | None, None ->
        Ok
          (Trace.generate ~seed:(Int64.of_int seed) Cello.trace_profile
             (Duration.days days))
    in
    match trace_result with
    | Error e -> Error e
    | Ok trace -> (
      let span = Trace.duration trace in
      if Duration.to_seconds span <= 0. then Error "trace is empty"
      else begin
      let windows =
        match
          List.filter
            (fun w -> Duration.compare w span < 0)
            Cello.batch_windows
        with
        | [] -> [ Duration.scale 0.5 span ] (* very short trace *)
        | ws -> ws
      in
      let workload =
        Trace_stats.to_workload ~name:"synthetic-cello" ~windows trace
      in
      Fmt.pr "events: %d, raw bytes: %a@." (Trace.event_count trace) Size.pp
        (Trace.total_bytes trace);
      Fmt.pr "%a@." Workload.pp workload;
      match save with
      | None -> Ok ()
      | Some path -> (
        match Trace_io.save_csv trace ~path with
        | Ok () ->
          Fmt.pr "trace written to %s@." path;
          Ok ()
        | Error e -> Error e)
      end)
  in
  let term = Term.(const run $ seed $ days $ save $ load $ import) in
  let info =
    Cmd.info "characterize"
      ~doc:
        "Generate a synthetic cello-like update trace and run the Table 2 \
         workload characterization pipeline on it."
  in
  Cmd.v info Term.(term_result' term)

(* --- risk --- *)

(* Expected incidents per year of the baseline's user error, array failure
   and site disaster: `risk`'s flag defaults and `report --risk`'s
   weights. *)
let object_per_year, array_per_year, site_per_year = (12., 0.2, 0.01)

let weighted_baseline object_freq array_freq site_freq =
  [
    { Risk.scenario = Baseline.scenario_object;
      frequency_per_year = object_freq };
    { Risk.scenario = Baseline.scenario_array;
      frequency_per_year = array_freq };
    { Risk.scenario = Baseline.scenario_site;
      frequency_per_year = site_freq };
  ]

let risk_cmd =
  let object_freq =
    let doc = "Expected user-error incidents per year." in
    Arg.(
      value
      & opt non_negative_float_conv object_per_year
      & info [ "object-per-year" ] ~docv:"F" ~doc)
  in
  let array_freq =
    let doc = "Expected array failures per year." in
    Arg.(
      value
      & opt non_negative_float_conv array_per_year
      & info [ "array-per-year" ] ~docv:"F" ~doc)
  in
  let site_freq =
    let doc = "Expected site disasters per year." in
    Arg.(
      value
      & opt non_negative_float_conv site_per_year
      & info [ "site-per-year" ] ~docv:"F" ~doc)
  in
  let horizon =
    let doc =
      "Also sample a Monte-Carlo cost distribution over this many years."
    in
    Arg.(
      value
      & opt (some years_conv) None
      & info [ "monte-carlo" ] ~docv:"YEARS" ~doc)
  in
  let run design object_freq array_freq site_freq horizon =
    match find_design designs design with
    | Error e -> Error e
    | Ok d ->
      let weighted = weighted_baseline object_freq array_freq site_freq in
      let distribution =
        match horizon with
        | Some years when years > 0. -> (
          (* Money is finite by construction, so a horizon long enough
             for the sampled costs to overflow fails inside the sampler. *)
          try Ok (Some (Risk.monte_carlo d weighted ~horizon_years:years))
          with Invalid_argument _ ->
            Error
              (Printf.sprintf
                 "--monte-carlo: the costs sampled over %g years overflow"
                 years))
        | Some _ | None -> Ok None
      in
      Result.map
        (fun dist ->
          Fmt.pr "%a@." Risk.pp (Risk.assess d weighted);
          Option.iter (Fmt.pr "%a@." Risk.pp_distribution) dist)
        distribution
  in
  let term =
    Term.(
      const run $ design_arg designs $ object_freq $ array_freq $ site_freq
      $ horizon)
  in
  let info =
    Cmd.info "risk"
      ~doc:"Frequency-weighted expected annual cost of a design."
  in
  Cmd.v info Term.(term_result' term)

(* --- fleet --- *)

let fleet_cmd =
  let module Fleet = Storage_fleet.Fleet in
  (* The what-if designs plus an m-of-n erasure preset, so the fleet
     command can exercise the technique Table 7 never evaluated. *)
  let fleet_designs =
    designs
    @ [ ("erasure", Whatif.erasure_coded ~fragments:9 ~required:6 ~links:10) ]
  in
  let trials_arg =
    let doc =
      "Monte-Carlo trials (independent sampled failure traces). At most \
       10^6: a run keeps every trial's record until it aggregates."
    in
    Arg.(value & opt positive_int_conv 1000 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let horizon_arg =
    let doc = "Operating horizon simulated by each trial, in years." in
    Arg.(value & opt years_conv 5. & info [ "horizon-years" ] ~docv:"YEARS" ~doc)
  in
  let seed_arg =
    let doc =
      "Master seed (decimal or 0x-hex). Every trial's trace derives from \
       it through one splitmix64 stream, so a fixed seed reproduces the \
       report byte-for-byte whatever $(b,--jobs) is."
    in
    Arg.(value & opt seed_conv 0xCA5CADEL & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let afr_arg =
    let doc = "Annualized failure rate per device (fraction per year)." in
    Arg.(value & opt float 0.02 & info [ "afr" ] ~docv:"RATE" ~doc)
  in
  let building_arg =
    let doc = "Correlated whole-building failures per building per year." in
    Arg.(
      value & opt float 0.005 & info [ "building-per-year" ] ~docv:"RATE" ~doc)
  in
  let site_arg =
    let doc = "Correlated site disasters per site per year." in
    Arg.(value & opt float 0.002 & info [ "site-per-year" ] ~docv:"RATE" ~doc)
  in
  let run design trials horizon seed afr building site json jobs stats
      stats_json =
    with_engine ~jobs ~stats ~stats_json @@ fun engine ->
    let ( let* ) = Result.bind in
    let invalid f = try Ok (f ()) with Invalid_argument m -> Error m in
    let* rates =
      invalid (fun () ->
          Fleet.rates ~default_afr:afr ~building_burst_per_year:building
            ~site_burst_per_year:site ())
    in
    (* The bounds [Fleet.config] enforces, reported against the flags. *)
    let* () =
      if trials > Fleet.max_trials then
        Error
          (Printf.sprintf
             "--trials %d: a run keeps every trial's record until it \
              aggregates; it takes at most %d"
             trials Fleet.max_trials)
      else Ok ()
    in
    let* () =
      match
        List.find_opt
          (fun (_, per_year, _) ->
            per_year *. horizon > Fleet.max_expected_arrivals)
          [
            ("--afr", afr, "device");
            ("--building-per-year", building, "building");
            ("--site-per-year", site, "site");
          ]
      with
      | None -> Ok ()
      | Some (flag, per_year, stream) ->
        Error
          (Printf.sprintf
             "%s %g over --horizon-years %g expects %g failures per %s; a \
              trial samples at most %g"
             flag per_year horizon (per_year *. horizon) stream
             Fleet.max_expected_arrivals)
    in
    let* config =
      invalid (fun () ->
          Fleet.config ~trials ~horizon_years:horizon ~seed ~rates ())
    in
    let* d = find_design fleet_designs design in
    let report = Fleet.run ~engine ~config d in
    if json then
      print_endline
        (Storage_report.Json.to_string_pretty (Fleet.to_json report))
    else Fmt.pr "%a@." Fleet.pp report;
    Ok ()
  in
  let term =
    Term.(
      const run $ design_arg fleet_designs $ trials_arg $ horizon_arg
      $ seed_arg $ afr_arg $ building_arg $ site_arg $ json_arg $ jobs_arg
      $ stats_arg $ stats_json_arg)
  in
  let info =
    Cmd.info "fleet"
      ~doc:
        "Fleet-scale Monte Carlo availability: sample AFR-driven \
         multi-failure traces per trial and simulate them, reporting \
         availability/durability nines, expected data loss and \
         rebuild-time percentiles."
  in
  Cmd.v info Term.(term_result' term)

(* --- degraded --- *)

let degraded_cmd =
  let level =
    let doc = "Hierarchy level whose technique is out of service (1-based)." in
    Arg.(value & opt int 2 & info [ "level" ] ~docv:"N" ~doc)
  in
  let outage =
    let doc = "How long the technique has been down, in hours." in
    Arg.(value & opt hours_conv 168. & info [ "outage" ] ~docv:"HOURS" ~doc)
  in
  let run design scope target_age level outage =
    match find_design designs design with
    | Error e -> Error e
    | Ok d -> (
      match scenario_of_scope ~target_age scope with
      | Error e -> Error e
      | Ok scenario ->
        (try
           Fmt.pr "%a@." Degraded.pp
             (Degraded.evaluate d ~disabled_level:level
                ~outage:(Duration.hours outage) scenario);
           Ok ()
         with Invalid_argument m -> Error m))
  in
  let term =
    Term.(
      const run $ design_arg designs $ scope_arg $ target_age_arg $ level
      $ outage)
  in
  let info =
    Cmd.info "degraded"
      ~doc:
        "Evaluate a failure that strikes while a protection technique is \
         out of service."
  in
  Cmd.v info Term.(term_result' term)

(* --- report --- *)

let report_cmd =
  let out =
    let doc = "Write the markdown report to FILE instead of stdout." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let with_risk =
    let doc =
      Printf.sprintf
        "Append a risk section using the default scenario frequencies \
         (object %g/yr, array %g/yr, site %g/yr)."
        object_per_year array_per_year site_per_year
    in
    Arg.(value & flag & info [ "risk" ] ~doc)
  in
  let run design file out with_risk =
    let design_and_scenarios =
      match file with
      | Some path -> (
        match load path with
        | Ok (_, []) ->
          Error "the design file defines no [scenario] sections to report on"
        | loaded -> loaded)
      | None -> (
        match find_design designs design with
        | Error e -> Error e
        | Ok d -> Ok (d, baseline_scenarios))
    in
    match design_and_scenarios with
    | Error e -> Error e
    | Ok (d, scenarios) -> (
      let risk =
        if with_risk then
          Some (weighted_baseline object_per_year array_per_year site_per_year)
        else None
      in
      let doc = Summary_report.markdown ?risk d scenarios in
      match out with
      | None ->
        print_string doc;
        Ok ()
      | Some path -> (
        match
          Out_channel.with_open_text path (fun oc -> output_string oc doc)
        with
        | () ->
          Fmt.pr "report written to %s@." path;
          Ok ()
        | exception Sys_error m -> Error m))
  in
  let term =
    Term.(const run $ design_arg designs $ file_arg $ out $ with_risk)
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Render a full markdown dependability report for a design (preset \
         or design-language file)."
  in
  Cmd.v info Term.(term_result' term)

(* --- explain --- *)

let explain_cmd =
  let run design file scope target_age =
    let design_result =
      match file with
      | Some path -> Result.map fst (load path)
      | None -> find_design designs design
    in
    match design_result with
    | Error e -> Error e
    | Ok d -> (
      match scenario_of_scope ~target_age scope with
      | Error e -> Error e
      | Ok scenario ->
        print_string (Explain.narrative d scenario);
        Ok ())
  in
  let term =
    Term.(
      const run $ design_arg designs $ file_arg $ scope_arg $ target_age_arg)
  in
  let info =
    Cmd.info "explain"
      ~doc:
        "Walk through an evaluation step by step: surviving levels, \
         retrieval-point ranges, source selection, and the recovery path's \
         bottlenecks."
  in
  Cmd.v info Term.(term_result' term)

(* --- portfolio --- *)

let portfolio_cmd =
  let files =
    let doc = "Design-language files to consolidate (devices shared by name)." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"FILE" ~doc)
  in
  let run paths =
    let rec load_all acc = function
      | [] -> Ok (List.rev acc)
      | path :: rest -> (
        match load path with
        | Error e -> Error (path ^ ": " ^ e)
        | Ok loaded -> load_all (loaded :: acc) rest)
    in
    match load_all [] paths with
    | Error e -> Error e
    | Ok designs -> (
      match Portfolio.make (List.map fst designs) with
      | Error e -> Error e
      | Ok portfolio ->
        Fmt.pr "%a@.@." Portfolio.pp portfolio;
        (match Portfolio.overcommitted portfolio with
        | [] -> Fmt.pr "consolidation fits on the shared hardware@."
        | over ->
          List.iter
            (fun ((d : Storage_device.Device.t), u) ->
              Fmt.pr "OVERCOMMITTED: %s (%a)@." d.Storage_device.Device.name
                Storage_device.Device.pp_utilization u)
            over);
        (* Evaluate each member under its own file's scenarios, with the
           neighbours' load applied. *)
        List.iter
          (fun ((original : Design.t), scenarios) ->
            let member =
              Option.get (Portfolio.member portfolio original.Design.name)
            in
            List.iter
              (fun (name, scenario) ->
                let r = Evaluate.run member scenario in
                Fmt.pr "%s / %s: %a@." original.Design.name name
                  Evaluate.pp_summary r)
              scenarios)
          designs;
        Ok ())
  in
  let term = Term.(const run $ files) in
  let info =
    Cmd.info "portfolio"
      ~doc:
        "Consolidate several design files onto shared hardware and evaluate \
         each member under the combined load."
  in
  Cmd.v info Term.(term_result' term)

(* --- fuzz --- *)

let fuzz_cmd =
  let module K = Storage_testkit in
  let seed_arg =
    let doc =
      "Session seed (decimal or 0x-hex). Per-case seeds derive from it \
       through one splitmix64 stream, so the same seed and budget \
       reproduce the same cases, findings and shrunk counterexamples."
    in
    Arg.(value & opt seed_conv 2004L & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let budget_arg =
    let doc =
      "Generate $(docv) fresh cases after corpus replay (0 replays only)."
    in
    Arg.(value & opt int 64 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let corpus_arg =
    let doc =
      "Failure-corpus directory: its $(b,.ssdep) entries are replayed \
       before any generation, and new shrunk counterexamples are written \
       back to it."
    in
    Arg.(value & opt string "test/corpus" & info [ "corpus" ] ~docv:"DIR" ~doc)
  in
  let replay_arg =
    let doc =
      "Re-judge a single corpus file against its recorded oracle and exit \
       (1 if it still fails, 0 if fixed); no generation."
    in
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE" ~doc)
  in
  let oracle_arg =
    let doc =
      "Restrict the run to oracle $(docv) (repeatable); see \
       $(b,--list-oracles)."
    in
    Arg.(value & opt_all string [] & info [ "oracle" ] ~docv:"NAME" ~doc)
  in
  let list_arg =
    let doc = "List the registered oracles and exit." in
    Arg.(value & flag & info [ "list-oracles" ] ~doc)
  in
  let print_finding (f : K.Fuzz.finding) =
    let e = f.K.Fuzz.entry in
    Fmt.pr "FAIL %s: %s@." e.K.Corpus.oracle e.K.Corpus.message;
    Fmt.pr "  case %d, seed 0x%Lx%s@." e.K.Corpus.case_index e.K.Corpus.seed
      (if f.K.Fuzz.replayed then " (corpus replay)"
       else Printf.sprintf ", shrunk %d steps" e.K.Corpus.shrink_steps);
    Fmt.pr "  design: %s@." e.K.Corpus.design.Design.name;
    match f.K.Fuzz.file with
    | Some path -> Fmt.pr "  corpus: %s@." path
    | None -> ()
  in
  let exit_with code =
    Format.pp_print_flush Format.std_formatter ();
    Stdlib.exit code
  in
  let usage msg =
    (* Configuration problems claim the documented exit code 2 directly,
       like `ssdep lint` does for its finding codes. *)
    Fmt.pr "ssdep fuzz: %s@." msg;
    exit_with 2
  in
  let run seed budget corpus replay oracle_names list_oracles jobs stats
      stats_json =
    if list_oracles then begin
      List.iter
        (fun (o : K.Oracle.t) ->
          Fmt.pr "%-24s %s@." o.K.Oracle.name o.K.Oracle.doc)
        K.Oracle.all;
      Ok ()
    end
    else begin
      if budget < 0 then usage "budget must be non-negative";
      let oracles =
        match oracle_names with
        | [] -> K.Oracle.defaults
        | names ->
          List.map
            (fun n ->
              match K.Oracle.find n with
              | Some o -> o
              | None ->
                usage
                  (Printf.sprintf "unknown oracle %S (try --list-oracles)" n))
            names
      in
      with_engine ~jobs ~stats ~stats_json @@ fun engine ->
      match replay with
      | Some path -> (
        match K.Fuzz.replay ~engine path with
        | Error msg -> usage msg
        | Ok None ->
          Fmt.pr "%s: no longer failing@." path;
          Ok ()
        | Ok (Some f) ->
          print_finding f;
          exit_with 1)
      | None -> (
        match
          K.Fuzz.run ~oracles ~corpus_dir:corpus ~engine ~seed ~budget ()
        with
        | Error msg -> usage msg
        | Ok o ->
          Fmt.pr "fuzz: seed 0x%Lx, budget %d, %d oracle%s@." seed budget
            (List.length oracles)
            (if List.length oracles = 1 then "" else "s");
          if o.K.Fuzz.replayed > 0 then
            Fmt.pr "corpus: replayed %d, fixed %d@." o.K.Fuzz.replayed
              o.K.Fuzz.fixed;
          Fmt.pr "findings: %d@." (List.length o.K.Fuzz.findings);
          List.iter print_finding o.K.Fuzz.findings;
          if o.K.Fuzz.findings <> [] then exit_with 1 else Ok ())
    end
  in
  let term =
    Term.(
      const run $ seed_arg $ budget_arg $ corpus_arg $ replay_arg $ oracle_arg
      $ list_arg $ jobs_arg $ stats_arg $ stats_json_arg)
  in
  let info =
    Cmd.info "fuzz"
      ~doc:
        "Generative conformance testing: seeded random designs and \
         workloads judged by differential and metamorphic oracles \
         (analytic vs simulation, streaming vs materialized, parallel \
         and cache invariance, monotonicity laws), with counterexamples \
         shrunk to minimal form and persisted to a replayable corpus. \
         Exits 1 when a counterexample is found, 2 on configuration \
         errors, 0 when clean."
  in
  Cmd.v info Term.(term_result' term)

(* --- serve --- *)

let serve_cmd =
  let module Server = Storage_serve.Server in
  let port =
    let doc = "TCP port to listen on (0 picks an ephemeral port)." in
    Arg.(value & opt int 8080 & info [ "p"; "port" ] ~docv:"PORT" ~doc)
  in
  let workers =
    let doc = "Handler domains draining the admission queue." in
    Arg.(value & opt positive_int_conv Server.default_config.Server.workers
         & info [ "workers" ] ~docv:"N" ~doc)
  in
  let queue =
    let doc =
      "Admission-queue bound: connections beyond $(docv) waiting for a \
       worker are answered 429 immediately (back-pressure, never \
       unbounded queueing)."
    in
    Arg.(value & opt positive_int_conv
           Server.default_config.Server.queue_capacity
         & info [ "queue" ] ~docv:"N" ~doc)
  in
  let max_body =
    let doc = "Request-body byte limit (413 beyond it)." in
    Arg.(value & opt positive_int_conv Server.default_config.Server.max_body
         & info [ "max-body" ] ~docv:"BYTES" ~doc)
  in
  let timeout =
    let doc = "Per-connection read/write timeout in seconds." in
    Arg.(value & opt float Server.default_config.Server.timeout
         & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run port workers queue max_body timeout jobs =
    (* The daemon's /stats endpoint is its observability story, so the
       engine always records ([Server.start] turns the registry on). *)
    match Storage_optimize.Engine.of_cli ~jobs ~stats:true () with
    | Error msg -> config_error msg
    | Ok engine ->
      Fun.protect
        ~finally:(fun () -> Storage_optimize.Engine.shutdown engine)
      @@ fun () ->
      let config =
        {
          Server.port;
          workers;
          queue_capacity = queue;
          max_body;
          timeout;
        }
      in
      let server =
        try Server.start ~config engine with
        | Invalid_argument msg -> config_error msg
        | Unix.Unix_error (err, _, _) ->
          config_error
            (Printf.sprintf "serve: cannot listen on port %d: %s" port
               (Unix.error_message err))
      in
      (* Scripts (CI smoke, the bench load generator) parse this line to
         learn the bound port; keep it first and flushed. *)
      Fmt.pr "listening on http://127.0.0.1:%d@." (Server.port server);
      Format.pp_print_flush Format.std_formatter ();
      let stop_requested = Atomic.make false in
      let request_stop _ = Atomic.set stop_requested true in
      Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
      Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
      while not (Atomic.get stop_requested) do
        try Unix.sleepf 0.2
        with Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      (* Graceful drain: stop accepting, answer everything already
         admitted, join the domains, then let [Fun.protect] shut the
         engine down. *)
      Server.stop server;
      Fmt.pr "drained, shutting down@.";
      Ok ()
  in
  let term =
    Term.(
      const run $ port $ workers $ queue $ max_body $ timeout $ jobs_arg)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run a long-lived evaluation service on 127.0.0.1: POST \
         design-language files to /evaluate (JSON byte-identical to \
         $(b,ssdep evaluate --json)) and /lint, search via /optimize, \
         watch /stats, probe /healthz. Every request is evaluated afresh; \
         a bounded admission queue answers 429 under overload; \
         SIGINT/SIGTERM drain gracefully."
  in
  Cmd.v info Term.(term_result' term)

let main_cmd =
  let doc = "storage system dependability evaluation (DSN 2004 framework)" in
  let info = Cmd.info "ssdep" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      tables_cmd; evaluate_cmd; check_cmd; lint_cmd; simulate_cmd;
      fleet_cmd; optimize_cmd; characterize_cmd; risk_cmd; degraded_cmd;
      report_cmd; portfolio_cmd; explain_cmd; fuzz_cmd; serve_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
