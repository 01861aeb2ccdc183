(* Tests for the design-description language: scalar value parsers, the
   sectioned key-value syntax, and full design assembly (checked for
   equivalence against the programmatic baseline preset). *)

open Storage_units
open Storage_model
open Storage_spec
open Helpers

let ok_or_fail = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let expect_error what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected an error" what

(* --- Values --- *)

let test_values_duration () =
  let parse s = Duration.to_seconds (ok_or_fail (Values.duration s)) in
  close "seconds" 90. (parse "90s");
  close "minutes" 120. (parse "2 min");
  close "hours" 3600. (parse "1hr");
  close "fractional" 36. (parse "0.01 hr");
  close "days" 86400. (parse "1d");
  close "weeks" 604800. (parse "1wk");
  close "years" (3. *. 365. *. 86400.) (parse "3yr");
  close "zero" 0. (parse "0");
  close "sum" ((4. *. 604800.) +. (12. *. 3600.)) (parse "4wk + 12hr");
  expect_error "no unit" (Values.duration "5");
  expect_error "bad unit" (Values.duration "5 parsecs");
  expect_error "not a number" (Values.duration "soon")

let test_values_size () =
  let parse s = Size.to_bytes (ok_or_fail (Values.size s)) in
  close "bytes" 512. (parse "512 B");
  close "kib" 1024. (parse "1KiB");
  close "gib" (1360. *. (1024. ** 3.)) (parse "1360 GiB");
  close "paper GB" (73. *. (1024. ** 3.)) (parse "73GB");
  close "tib" (1024. ** 4.) (parse "1 TiB");
  expect_error "missing unit" (Values.size "34");
  expect_error "negative" (Values.size "-1 GiB")

let test_values_rate () =
  let parse s = Rate.to_bytes_per_sec (ok_or_fail (Values.rate s)) in
  close "mib/s" (25. *. 1024. *. 1024.) (parse "25 MiB/s");
  close "kb/s" (727. *. 1024.) (parse "727KB/s");
  close "mbps" (155e6 /. 8.) (parse "155 Mbps");
  expect_error "no unit" (Values.rate "12")

let test_values_money () =
  let parse s = Money.to_usd (ok_or_fail (Values.money s)) in
  close "plain" 123297. (parse "123297");
  close "dollar sign" 98895. (parse "$98895");
  close "thousands" 50_000. (parse "50k");
  close "millions" 1_500_000. (parse "$1.5M");
  expect_error "words" (Values.money "a lot")

let test_values_counted () =
  let n, rest = ok_or_fail (Values.counted "256 x 73 GiB") in
  Alcotest.(check int) "count" 256 n;
  Alcotest.(check string) "rest" "73 GiB" rest;
  expect_error "no x" (Values.counted "256 73GiB");
  expect_error "zero count" (Values.counted "0 x 73GiB")

(* --- Ini --- *)

let test_ini_basic () =
  let sections =
    ok_or_fail
      (Ini.parse
         "# a comment\n\n[alpha]\nkey = value\nother = 1 2 3\n[beta b-arg]\nx = y\n")
  in
  Alcotest.(check int) "two sections" 2 (List.length sections);
  let alpha = ok_or_fail (Ini.find_one sections ~kind:"alpha") in
  Alcotest.(check string) "value" "value" (ok_or_fail (Ini.get alpha "key"));
  Alcotest.(check string) "spaces kept" "1 2 3" (ok_or_fail (Ini.get alpha "other"));
  let beta = ok_or_fail (Ini.find_one sections ~kind:"beta") in
  Alcotest.(check (option string)) "arg" (Some "b-arg") beta.Ini.arg

let test_ini_case_insensitive_keys () =
  let sections = ok_or_fail (Ini.parse "[s]\nKEY = V\n") in
  let s = ok_or_fail (Ini.find_one sections ~kind:"s") in
  Alcotest.(check string) "lowered" "V" (ok_or_fail (Ini.get s "key"))

let test_ini_errors () =
  expect_error "key outside section" (Ini.parse "key = value\n");
  expect_error "duplicate key" (Ini.parse "[s]\na = 1\na = 2\n");
  expect_error "duplicate section" (Ini.parse "[s]\na = 1\n[s]\nb = 2\n");
  expect_error "unterminated header" (Ini.parse "[s\na = 1\n");
  expect_error "garbage line" (Ini.parse "[s]\nnot a key value line\n")

let test_ini_trailing_comments () =
  let sections =
    ok_or_fail (Ini.parse "[s]\nacc = 12hr  # fortnightly would be nicer\nurl = http://x#frag\n")
  in
  let s = ok_or_fail (Ini.find_one sections ~kind:"s") in
  Alcotest.(check string) "comment stripped" "12hr" (ok_or_fail (Ini.get s "acc"));
  Alcotest.(check string) "hash without space kept" "http://x#frag"
    (ok_or_fail (Ini.get s "url"))

let test_ini_unknown_keys () =
  let sections = ok_or_fail (Ini.parse "[s]\ngood = 1\ntypo = 2\n") in
  let s = ok_or_fail (Ini.find_one sections ~kind:"s") in
  Alcotest.(check (list string)) "typo flagged" [ "typo" ]
    (Ini.unknown_keys s ~known:[ "good" ])

(* --- Spec assembly --- *)

let baseline_file = "../examples/designs/baseline.ssdep"

let read path = In_channel.with_open_text path In_channel.input_all

let baseline_text = lazy (read baseline_file)

let test_spec_baseline_parses () =
  let design = ok_or_fail (Spec.design_of_string (Lazy.force baseline_text)) in
  Alcotest.(check string) "name" "cello" design.Design.name;
  Alcotest.(check int) "four levels" 4
    (Storage_hierarchy.Hierarchy.length design.Design.hierarchy)

let test_spec_baseline_equivalent_to_preset () =
  (* The file-described baseline must produce the same headline numbers as
     the programmatic preset. *)
  let from_file = ok_or_fail (Spec.design_of_string (Lazy.force baseline_text)) in
  let check_scenario scenario =
    let a = Evaluate.run from_file scenario in
    let b = Evaluate.run Storage_presets.Baseline.design scenario in
    close ~tol:1e-9 "recovery time"
      (Duration.to_seconds b.Evaluate.recovery_time)
      (Duration.to_seconds a.Evaluate.recovery_time);
    (match (a.Evaluate.data_loss.Data_loss.loss, b.Evaluate.data_loss.Data_loss.loss) with
    | Data_loss.Updates x, Data_loss.Updates y ->
      close ~tol:1e-9 "data loss" (Duration.to_seconds y) (Duration.to_seconds x)
    | Data_loss.Entire_object, Data_loss.Entire_object -> ()
    | _ -> Alcotest.fail "loss class mismatch");
    close ~tol:1e-9 "total cost"
      (Money.to_usd b.Evaluate.total_cost)
      (Money.to_usd a.Evaluate.total_cost)
  in
  List.iter check_scenario Storage_presets.Baseline.scenarios

let test_spec_baseline_scenarios () =
  let scenarios =
    ok_or_fail (Spec.scenarios_of_string (Lazy.force baseline_text))
  in
  Alcotest.(check (list string)) "names"
    [ "user-error"; "array-failure"; "site-disaster" ]
    (List.map fst scenarios)

let minimal =
  {|
[workload]
data_capacity = 10 GiB
avg_access_rate = 1 MiB/s
avg_update_rate = 500 KiB/s
burst_multiplier = 2
batch = 1min: 400 KiB/s, 1hr: 300 KiB/s

[device d]
location = r/s/b
capacity_slots = 10 x 100 GiB
bandwidth_slots = 4 x 50 MiB/s

[level 0]
technique = primary
device = d
raid = raid0

[level 1]
technique = split_mirror
device = d
acc = 6hr
retention = 2

[business]
outage_penalty = $1k/hr
loss_penalty = $1k/hr
|}

let test_spec_minimal () =
  let d = ok_or_fail (Spec.design_of_string minimal) in
  Alcotest.(check bool) "validates" true (Design.validate d = Ok ())

(* Replace the first occurrence of [old_s] in the minimal design (first
   only: replacements may contain the needle). *)
let mutate ~old_s ~new_s =
  let s = minimal in
  let ol = String.length old_s in
  let sl = String.length s in
  let rec find i =
    if i + ol > sl then None
    else if String.sub s i ol = old_s then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Alcotest.failf "mutate: %S not found in the minimal design" old_s
  | Some i -> String.sub s 0 i ^ new_s ^ String.sub s (i + ol) (sl - i - ol)

let test_spec_errors () =
  expect_error "missing workload"
    (Spec.design_of_string "[business]\noutage_penalty = $1/hr\nloss_penalty = $1/hr\n");
  expect_error "unknown device in level"
    (Spec.design_of_string (mutate ~old_s:"device = d" ~new_s:"device = nope"));
  expect_error "unknown technique"
    (Spec.design_of_string
       (mutate ~old_s:"technique = split_mirror" ~new_s:"technique = warp"));
  expect_error "non-contiguous levels"
    (Spec.design_of_string (mutate ~old_s:"[level 1]" ~new_s:"[level 3]"));
  expect_error "unknown key"
    (Spec.design_of_string
       (mutate ~old_s:"burst_multiplier = 2" ~new_s:"burst_multiplier = 2\nbogus = 1"));
  expect_error "bad penalty rate"
    (Spec.design_of_string
       (mutate ~old_s:"outage_penalty = $1k/hr" ~new_s:"outage_penalty = $1k"));
  expect_error "overcommitted design rejected"
    (Spec.design_of_string
       (mutate ~old_s:"data_capacity = 10 GiB" ~new_s:"data_capacity = 600 GiB"))

let test_spec_incremental_parses () =
  let text =
    mutate ~old_s:"technique = split_mirror\ndevice = d\nacc = 6hr\nretention = 2"
      ~new_s:
        "technique = backup\ndevice = d\nacc = 48hr\nprop = 6hr\nhold = 1hr\n\
         retention = 4\nincremental = cumulative acc=24hr prop=3hr count=1"
  in
  let d = ok_or_fail (Spec.design_of_string text) in
  let level = Storage_hierarchy.Hierarchy.level d.Design.hierarchy 1 in
  match Storage_protection.Technique.schedule level.Storage_hierarchy.Hierarchy.technique with
  | Some s ->
    Alcotest.(check int) "cycle count" 1 s.Storage_protection.Schedule.cycle_count;
    close_duration "cycle period" (Duration.hours 72.)
      (Storage_protection.Schedule.cycle_period s)
  | None -> Alcotest.fail "backup has a schedule"

let with_wan_link text =
  (* A wide-area link for mirror/erasure levels to ride on. *)
  text ^ "\n[link wan]\ntype = network\nbandwidth = 1 x 155 Mbps\n"

let test_spec_erasure_coded () =
  let text =
    with_wan_link
      (mutate
         ~old_s:"technique = split_mirror\ndevice = d\nacc = 6hr\nretention = 2"
         ~new_s:
           "technique = erasure_coded\ndevice = d\nlink = wan\nacc = 1hr\n\
            prop = 1hr\nretention = 24\nfragments = 8\nrequired = 5")
  in
  let d = ok_or_fail (Spec.design_of_string text) in
  let level = Storage_hierarchy.Hierarchy.level d.Design.hierarchy 1 in
  (match level.Storage_hierarchy.Hierarchy.technique with
  | Storage_protection.Technique.Erasure_coded { fragments; required; _ } ->
    Alcotest.(check int) "fragments" 8 fragments;
    Alcotest.(check int) "required" 5 required
  | _ -> Alcotest.fail "expected erasure coding");
  expect_error "fragments < required"
    (Spec.design_of_string
       (with_wan_link
          (mutate
             ~old_s:
               "technique = split_mirror\ndevice = d\nacc = 6hr\nretention = 2"
             ~new_s:
               "technique = erasure_coded\ndevice = d\nlink = wan\nacc = 1hr\n\
                retention = 24\nfragments = 3\nrequired = 5")))

let test_spec_scope_parse () =
  let scenarios =
    ok_or_fail
      (Spec.scenarios_of_string
         "[scenario a]\nscope = object\ntarget_age = 1hr\nobject_size = 2 MiB\n\
          [scenario b]\nscope = region west\n")
  in
  (match scenarios with
  | [ (_, a); (_, b) ] ->
    Alcotest.(check bool) "object scope" true
      (a.Scenario.scope = Storage_device.Location.Data_object);
    Alcotest.(check bool) "region scope" true
      (b.Scenario.scope = Storage_device.Location.Region "west")
  | _ -> Alcotest.fail "expected two scenarios");
  let compound =
    ok_or_fail
      (Spec.scenarios_of_string
         "[scenario double]\nscope = device a + site b\n")
  in
  match compound with
  | [ (_, s) ] ->
    Alcotest.(check bool) "compound scope" true
      (s.Scenario.scope
      = Storage_device.Location.Multiple
          [ Storage_device.Location.Device "a";
            Storage_device.Location.Site "b" ])
  | _ -> Alcotest.fail "expected one scenario"

(* [of_string] is the two half-loaders over one parse: the same design
   and scenarios, or the same error, for every shipped design and corpus
   entry, validated or not. *)
let test_spec_of_string_agrees () =
  let ssdep_files dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ssdep")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let designs = ssdep_files "../examples/designs" in
  let corpus = ssdep_files "corpus" in
  Alcotest.(check bool) "designs and corpus entries found" true
    (designs <> [] && corpus <> []);
  let summary = function
    | Ok (d, scenarios) ->
      Ok
        ( Design.fingerprint d,
          List.map (fun (n, s) -> (n, Scenario.fingerprint s)) scenarios )
    | Error e -> Error e
  in
  let result =
    Alcotest.(result (pair string (list (pair string string))) string)
  in
  List.iter
    (fun path ->
      let text = read path in
      List.iter
        (fun validate ->
          let halves =
            Result.bind (Spec.design_of_string ~validate text) (fun d ->
                Result.map (fun s -> (d, s)) (Spec.scenarios_of_string text))
          in
          Alcotest.check result
            (Printf.sprintf "%s, validate %b" path validate)
            (summary halves)
            (summary (Spec.of_string ~validate text)))
        [ true; false ])
    (designs @ corpus)

(* A design error is reported before a scenario error, whichever section
   comes first in the text. *)
let test_spec_of_string_error_order () =
  let broken_scenario = "[scenario broken]\nscope = galaxy far\n" in
  let broken_design = mutate ~old_s:"device = d" ~new_s:"device = nope" in
  let design_error =
    match Spec.design_of_string broken_design with
    | Error e -> e
    | Ok _ -> Alcotest.fail "the mutated design should not parse"
  in
  List.iter
    (fun (what, text) ->
      match Spec.of_string text with
      | Error e -> Alcotest.(check string) what design_error e
      | Ok _ -> Alcotest.failf "%s: expected an error" what)
    [
      ("scenario last", broken_design ^ broken_scenario);
      ("scenario first", broken_scenario ^ broken_design);
    ]

let suite =
  [
    ( "spec.values",
      [
        Alcotest.test_case "durations" `Quick test_values_duration;
        Alcotest.test_case "sizes" `Quick test_values_size;
        Alcotest.test_case "rates" `Quick test_values_rate;
        Alcotest.test_case "money" `Quick test_values_money;
        Alcotest.test_case "counted" `Quick test_values_counted;
      ] );
    ( "spec.ini",
      [
        Alcotest.test_case "basic parsing" `Quick test_ini_basic;
        Alcotest.test_case "case-insensitive keys" `Quick
          test_ini_case_insensitive_keys;
        Alcotest.test_case "syntax errors" `Quick test_ini_errors;
        Alcotest.test_case "trailing comments" `Quick test_ini_trailing_comments;
        Alcotest.test_case "unknown-key detection" `Quick test_ini_unknown_keys;
      ] );
    ( "spec.design",
      [
        Alcotest.test_case "baseline file parses" `Quick test_spec_baseline_parses;
        Alcotest.test_case "file equals preset" `Quick
          test_spec_baseline_equivalent_to_preset;
        Alcotest.test_case "scenario sections" `Quick test_spec_baseline_scenarios;
        Alcotest.test_case "minimal design" `Quick test_spec_minimal;
        Alcotest.test_case "assembly errors" `Quick test_spec_errors;
        Alcotest.test_case "incremental sub-policy" `Quick
          test_spec_incremental_parses;
        Alcotest.test_case "erasure coding" `Quick test_spec_erasure_coded;
        Alcotest.test_case "scenario scopes" `Quick test_spec_scope_parse;
        Alcotest.test_case "of_string equals the half-loaders" `Quick
          test_spec_of_string_agrees;
        Alcotest.test_case "design errors before scenario errors" `Quick
          test_spec_of_string_error_order;
      ] );
  ]
