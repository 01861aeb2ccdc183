(* Tests for hierarchy composition: structural validation, lag and
   retrieval-point range arithmetic (Figure 3), and failure survivorship. *)

open Storage_units
open Storage_device
open Storage_protection
open Storage_hierarchy
open Storage_presets
open Helpers

let h = Baseline.design.Storage_model.Design.hierarchy

let level technique device link = { Hierarchy.technique; device; link }

let primary_level =
  level (Technique.Primary_copy { raid = Raid.Raid1 }) Baseline.disk_array None

let sm_level =
  level
    (Technique.Split_mirror Baseline.split_mirror_schedule)
    Baseline.disk_array None

let backup_level =
  level (Technique.Backup Baseline.backup_schedule) Baseline.tape_library
    (Some Baseline.san)

(* --- validation --- *)

let test_valid_baseline () =
  match Hierarchy.make [ primary_level; sm_level; backup_level ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "should validate: %s" e

let test_empty_rejected () =
  match Hierarchy.make [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty hierarchy accepted"

let test_level0_must_be_primary () =
  match Hierarchy.make [ sm_level ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-primary level 0 accepted"

let test_single_primary_only () =
  match Hierarchy.make [ primary_level; primary_level ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate primary accepted"

let test_retention_must_not_decrease () =
  let shallow =
    level
      (Technique.Backup
         (Schedule.simple ~acc:(Duration.weeks 1.) ~retention_count:2 ()))
      Baseline.tape_library (Some Baseline.san)
  in
  match Hierarchy.make [ primary_level; sm_level; shallow ] with
  | Error e ->
    Alcotest.(check bool) "mentions retention" true
      (String.length e > 0
      && String.lowercase_ascii e |> fun s ->
         String.length s >= 9 && String.sub s 0 9 = "retention")
  | Ok _ -> Alcotest.fail "decreasing retention accepted"

let test_accumulation_must_not_shrink () =
  let fast_backup =
    level
      (Technique.Backup
         (Schedule.simple ~acc:(Duration.hours 6.) ~retention_count:10 ()))
      Baseline.tape_library (Some Baseline.san)
  in
  (* Backup accW (6 hr) below the split mirror cycle (12 hr). *)
  match Hierarchy.make [ primary_level; sm_level; fast_backup ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "shrinking accumulation accepted"

let test_colocated_must_share_device () =
  let misplaced =
    level
      (Technique.Split_mirror Baseline.split_mirror_schedule)
      Baseline.tape_library None
  in
  match Hierarchy.make [ primary_level; misplaced ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "split mirror off the primary array accepted"

(* §3.2.3 sizes a backup's bandwidth as copy size over propW, so a zero
   window (the default when [prop] is omitted) is rejected, naming the
   level, for the full and for the incremental representation. *)
let test_backup_propagation_must_be_positive () =
  let backup schedule =
    level (Technique.Backup schedule) Baseline.tape_library (Some Baseline.san)
  in
  let rejects name schedule expected =
    match Hierarchy.make [ primary_level; sm_level; backup schedule ] with
    | Error e -> Alcotest.(check string) name expected e
    | Ok _ -> Alcotest.failf "%s: zero propagation window accepted" name
  in
  rejects "full window"
    (Schedule.simple ~acc:(Duration.weeks 1.) ~hold:(Duration.hours 1.)
       ~retention_count:4 ())
    "level 2 (backup): the full propagation window must be positive";
  let incremental prop =
    Schedule.make
      ~full:
        (Schedule.windows ~acc:(Duration.weeks 1.) ~prop:(Duration.hours 48.)
           ())
      ~secondary:
        (Schedule.Cumulative, Schedule.windows ~acc:(Duration.days 1.) ?prop ())
      ~cycle_count:6 ~retention_count:4 ()
  in
  rejects "incremental window" (incremental None)
    "level 2 (backup): the incremental propagation window must be positive";
  let positive = incremental (Some (Duration.hours 12.)) in
  match Hierarchy.make [ primary_level; sm_level; backup positive ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "positive windows rejected: %s" e

let test_warnings_baseline_hold () =
  (* Baseline vault hold (4 wk + 12 hr) exceeds the backup retention
     window (4 wk): tapes sit 12 extra hours; warned, not an error. *)
  Alcotest.(check int) "one warning" 1 (List.length (Hierarchy.warnings h))

(* --- lags and ranges (Figure 3 goldens) --- *)

let test_lags_baseline () =
  close_duration "level 0" Duration.zero (Hierarchy.worst_lag h 0);
  close_duration "split mirror worst" (Duration.hours 12.) (Hierarchy.worst_lag h 1);
  close_duration "backup worst" (Duration.hours 217.) (Hierarchy.worst_lag h 2);
  close_duration "vault worst" (Duration.hours 1429.) (Hierarchy.worst_lag h 3);
  close_duration "backup best" (Duration.hours 49.) (Hierarchy.best_lag h 2);
  close_duration "vault best" (Duration.hours 757.) (Hierarchy.best_lag h 3);
  close_duration "upstream of vault" (Duration.hours 49.) (Hierarchy.upstream_lag h 3)

let test_ranges_baseline () =
  (match Hierarchy.guaranteed_range h 0 with
  | Some r -> close_duration "level 0 newest" Duration.zero (Age_range.newest_age r)
  | None -> Alcotest.fail "level 0 has a range");
  (match Hierarchy.guaranteed_range h 1 with
  | Some r ->
    close_duration "sm newest" (Duration.hours 12.) (Age_range.newest_age r);
    close_duration "sm oldest" (Duration.hours 36.) (Age_range.oldest_age r)
  | None -> Alcotest.fail "split mirror has a range");
  (match Hierarchy.guaranteed_range h 2 with
  | Some r ->
    close_duration "backup newest" (Duration.hours 217.) (Age_range.newest_age r);
    (* best lag + (retCnt-1) * cyclePer = 49 + 504 hr *)
    close_duration "backup oldest" (Duration.hours 553.) (Age_range.oldest_age r)
  | None -> Alcotest.fail "backup has a range");
  match Hierarchy.guaranteed_range h 3 with
  | Some r ->
    close_duration "vault newest" (Duration.hours 1429.) (Age_range.newest_age r);
    close_duration "vault oldest"
      (Duration.add (Duration.hours 757.) (Duration.weeks (4. *. 38.)))
      (Age_range.oldest_age r)
  | None -> Alcotest.fail "vault has a range"

let test_shallow_retention_range_empty () =
  (* A mirror with retCnt = 1 guarantees no rollback range at all. *)
  let mirror =
    level
      (Technique.Remote_mirror
         {
           mode = Technique.Asynchronous_batch;
           schedule =
             Schedule.simple ~acc:(Duration.minutes 1.)
               ~prop:(Duration.minutes 1.) ~retention_count:1 ();
         })
      Baseline.remote_array
      (Some (Baseline.oc3 ~links:1))
  in
  let h2 = Hierarchy.make_exn [ primary_level; mirror ] in
  Alcotest.(check bool) "no guaranteed range" true
    (Hierarchy.guaranteed_range h2 1 = None);
  close_duration "worst lag still defined" (Duration.minutes 2.)
    (Hierarchy.worst_lag h2 1)

(* --- survivorship --- *)

let test_survivors () =
  let check scope expected =
    Alcotest.(check (list int))
      (Location.scope_name scope)
      expected
      (Hierarchy.surviving_levels h ~scope)
  in
  check Location.Data_object [ 1; 2; 3 ];
  check (Location.Device "disk-array") [ 2; 3 ];
  check (Location.Device "tape-library") [ 0; 1; 3 ];
  check (Location.Site "primary") [ 3 ];
  check (Location.Building "bldg-1") [ 3 ];
  check (Location.Region "west") [ 3 ];
  check (Location.Region "east") [ 0; 1; 2 ]

let test_accessors () =
  Alcotest.(check int) "length" 4 (Hierarchy.length h);
  Alcotest.(check string) "primary device" "disk-array"
    (Hierarchy.primary h).Hierarchy.device.Device.name;
  check_raises_invalid "out of range" (fun () -> Hierarchy.level h 7)

(* --- property tests --- *)

let prop_worst_ge_best =
  QCheck.Test.make ~name:"hierarchy worst lag >= best lag" ~count:50
    QCheck.(pair (float_range 1. 48.) (int_range 1 8))
    (fun (acc_h, ret) ->
      let sm =
        level
          (Technique.Split_mirror
             (Schedule.simple ~acc:(Duration.hours acc_h) ~retention_count:ret ()))
          Baseline.disk_array None
      in
      match Hierarchy.make [ primary_level; sm ] with
      | Error _ -> QCheck.assume_fail ()
      | Ok h2 ->
        Duration.compare (Hierarchy.worst_lag h2 1) (Hierarchy.best_lag h2 1) >= 0)

let prop_range_newest_is_worst_lag =
  QCheck.Test.make ~name:"range newest age equals worst lag" ~count:50
    QCheck.(pair (float_range 1. 48.) (int_range 2 8))
    (fun (acc_h, ret) ->
      let sm =
        level
          (Technique.Split_mirror
             (Schedule.simple ~acc:(Duration.hours acc_h) ~retention_count:ret ()))
          Baseline.disk_array None
      in
      match Hierarchy.make [ primary_level; sm ] with
      | Error _ -> QCheck.assume_fail ()
      | Ok h2 -> (
        match Hierarchy.guaranteed_range h2 1 with
        | Some r ->
          Duration.equal (Age_range.newest_age r) (Hierarchy.worst_lag h2 1)
        | None -> false))

(* [lags] computes each level's upstream lag once, in one pass; it must
   agree bit for bit (signed zeros included, hence Marshal) with the
   per-level functions, each of which folds its own upstream lag. *)
let test_lags_table_matches_per_level () =
  let bytes x = Marshal.to_string x [ Marshal.No_sharing ] in
  List.iter
    (fun (d : Storage_model.Design.t) ->
      let h = d.Storage_model.Design.hierarchy in
      let per_level =
        Array.init (Hierarchy.length h) (fun j ->
            {
              Hierarchy.worst = Hierarchy.worst_lag h j;
              range = Hierarchy.guaranteed_range h j;
              rp_interval_min =
                (match
                   Technique.schedule (Hierarchy.level h j).Hierarchy.technique
                 with
                | Some s -> Schedule.rp_interval_min s
                | None -> Duration.zero);
            })
      in
      if bytes (Hierarchy.lags h) <> bytes per_level then
        Alcotest.failf "%s: lag table differs from the per-level lags"
          d.Storage_model.Design.name)
    (List.map snd Whatif.all @ Storage_testkit.Seeded.pool ())

let suite =
  [
    ( "hierarchy",
      [
        Alcotest.test_case "valid baseline" `Quick test_valid_baseline;
        Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
        Alcotest.test_case "level 0 must be primary" `Quick
          test_level0_must_be_primary;
        Alcotest.test_case "single primary" `Quick test_single_primary_only;
        Alcotest.test_case "retention monotonicity" `Quick
          test_retention_must_not_decrease;
        Alcotest.test_case "accumulation monotonicity" `Quick
          test_accumulation_must_not_shrink;
        Alcotest.test_case "colocation rule" `Quick test_colocated_must_share_device;
        Alcotest.test_case "hold-window warning" `Quick test_warnings_baseline_hold;
        Alcotest.test_case "lags (Figure 3 goldens)" `Quick test_lags_baseline;
        Alcotest.test_case "ranges (Figure 3 goldens)" `Quick test_ranges_baseline;
        Alcotest.test_case "lag table = per-level lags" `Quick
          test_lags_table_matches_per_level;
        Alcotest.test_case "shallow retention empty range" `Quick
          test_shallow_retention_range_empty;
        Alcotest.test_case "survivors per scope" `Quick test_survivors;
        Alcotest.test_case "accessors" `Quick test_accessors;
        qcheck prop_worst_ge_best;
        qcheck prop_range_newest_is_worst_lag;
        Alcotest.test_case "backup propagation windows positive" `Quick
          test_backup_propagation_must_be_positive;
      ] );
  ]
