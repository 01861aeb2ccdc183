(* Tests for the discrete-event simulator: the event queue and flow
   network primitives, and cross-validation of measured recovery against
   the analytical model's bounds. *)

open Storage_units
open Storage_model
open Storage_presets
open Storage_sim
open Helpers

(* --- Event_queue --- *)

(* The payloads [drain_until] moves into a fresh batch, in order. *)
let drained q bound =
  let b = Event_queue.batch () in
  Event_queue.drain_until q bound b;
  List.init (Event_queue.batch_length b) (Event_queue.batch_get b)

let test_queue_ordering () =
  let q = Event_queue.create () in
  List.iter (fun (t, v) -> Event_queue.push q ~time:t v)
    [ (5., "e"); (1., "a"); (3., "c"); (2., "b"); (4., "d") ];
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
      popped := v :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ]
    (List.rev !popped)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:1. "first";
  Event_queue.push q ~time:1. "second";
  Event_queue.push q ~time:1. "third";
  let v1 = snd (Option.get (Event_queue.pop q)) in
  let v2 = snd (Option.get (Event_queue.pop q)) in
  Alcotest.(check string) "fifo" "first" v1;
  Alcotest.(check string) "fifo 2" "second" v2

let test_queue_drain_until () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t t) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (list (float 0.))) "drained two" [ 1.; 2. ] (drained q 2.5);
  Alcotest.(check int) "two remain" 2 (Event_queue.length q);
  (* A batch is reused: the next drain replaces its contents. *)
  let b = Event_queue.batch () in
  Event_queue.drain_until q 3. b;
  Event_queue.drain_until q 10. b;
  Alcotest.(check int) "refilled, not appended" 1 (Event_queue.batch_length b);
  close "last drained" 4. (Event_queue.batch_get b 0);
  check_raises_invalid "past the batch" (fun () -> Event_queue.batch_get b 1)

let test_queue_validation () =
  let q = Event_queue.create () in
  check_raises_invalid "nan time" (fun () -> Event_queue.push q ~time:Float.nan ());
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q);
  Alcotest.(check bool) "peek is infinity" true
    (Event_queue.peek_time q = infinity)

let test_queue_drain_until_boundaries () =
  let q = Event_queue.create () in
  Alcotest.(check int) "empty queue drains nothing" 0
    (List.length (drained q 10.));
  List.iteri (fun i t -> Event_queue.push q ~time:t i)
    [ 2.; 5.; 5.; 9. ];
  Alcotest.(check int) "bound below all: nothing" 0
    (List.length (drained q 1.9));
  Alcotest.(check int) "queue untouched" 4 (Event_queue.length q);
  (* The bound is inclusive, and ties at the bound drain in FIFO order. *)
  Alcotest.(check (list int)) "bound on a tie drains through it" [ 0; 1; 2 ]
    (drained q 5.);
  Alcotest.(check (list int)) "bound above all drains the rest" [ 3 ]
    (drained q 1e9);
  Alcotest.(check bool) "now empty" true (Event_queue.is_empty q)

let prop_queue_pops_sorted =
  QCheck.Test.make ~name:"event queue pops in time order" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (float_range 0. 1000.))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun t -> Event_queue.push q ~time:t t) times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (t, _) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      popped = List.sort Float.compare times)

let prop_queue_fifo_stable_on_ties =
  (* Times drawn from ten discrete slots force plenty of duplicates; the
     payload records insertion order. Popping must be globally
     time-ordered, and within a timestamp, first-scheduled-first. *)
  QCheck.Test.make ~name:"heap is time-ordered, FIFO-stable on duplicates"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 1 150) (int_range 0 9))
    (fun slots ->
      let q = Event_queue.create () in
      List.iteri
        (fun i s -> Event_queue.push q ~time:(float_of_int s) i)
        slots;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (t, i) -> drain ((t, i) :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let rec ordered = function
        | (t1, i1) :: ((t2, i2) :: _ as rest) ->
          (t1 < t2 || (t1 = t2 && i1 < i2)) && ordered rest
        | _ -> true
      in
      List.length popped = List.length slots && ordered popped)

let prop_queue_drain_until_partitions =
  (* drain_until splits the queue exactly at the (inclusive) bound: the
     drained prefix is every event <= bound in order, and a full drain of
     the rest yields every event > bound in order. *)
  QCheck.Test.make ~name:"drain_until partitions at the inclusive bound"
    ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.int_range 0 100) (int_range 0 19))
        (int_range 0 19))
    (fun (slots, bound) ->
      let q = Event_queue.create () in
      List.iteri
        (fun i s ->
          let t = float_of_int s in
          Event_queue.push q ~time:t (t, i))
        slots;
      let bound_t = float_of_int bound in
      let drained = drained q bound_t in
      let rec rest acc =
        match Event_queue.pop q with
        | Some (_, ev) -> rest (ev :: acc)
        | None -> List.rev acc
      in
      let rest = rest [] in
      let indexed = List.mapi (fun i s -> (float_of_int s, i)) slots in
      let sort_stable =
        List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      in
      drained = sort_stable (List.filter (fun (t, _) -> t <= bound_t) indexed)
      && rest = sort_stable (List.filter (fun (t, _) -> t > bound_t) indexed))

(* Pops until empty. *)
let pops q =
  let rec go acc =
    match Event_queue.pop q with
    | Some (t, v) -> go ((t, v) :: acc)
    | None -> List.rev acc
  in
  go []

let test_queue_copy_independent () =
  let filled () =
    let q = Event_queue.create () in
    List.iter
      (fun (t, v) -> Event_queue.push q ~time:t v)
      [ (3., "a"); (1., "b"); (3., "c"); (2., "d"); (1., "e") ];
    ignore (Event_queue.pop q);
    q
  in
  let q = filled () in
  let c = Event_queue.copy q in
  Event_queue.push c ~time:0.5 "x";
  Event_queue.push c ~time:3. "y";
  Alcotest.(check (option (pair (float 0.) string)))
    "the copy pops its own push" (Some (0.5, "x")) (Event_queue.pop c);
  let events = Alcotest.(list (pair (float 0.) string)) in
  Alcotest.check events "the copy keeps the heap order and ties"
    [ (1., "e"); (2., "d"); (3., "a"); (3., "c"); (3., "y") ]
    (pops c);
  Alcotest.check events "the original pops as if never copied"
    (pops (filled ())) (pops q)

(* --- Flow_net --- *)

let test_flow_single () =
  let net = Flow_net.create () in
  let a = Flow_net.add_node net ~name:"a" ~capacity:100. in
  let b = Flow_net.add_node net ~name:"b" ~capacity:40. in
  let f = Flow_net.add_flow net ~through:[ (a, 1); (b, 1) ] ~bytes:400. () in
  close "bottleneck rate" 40. (Flow_net.rate net f);
  close "completion" 10. (Flow_net.next_completion net);
  let completed = Flow_net.advance net 10. in
  Alcotest.(check int) "completed" 1 (List.length completed)

let test_flow_fair_share () =
  let net = Flow_net.create () in
  let n = Flow_net.add_node net ~name:"n" ~capacity:100. in
  let f1 = Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:1000. () in
  let f2 = Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:1000. () in
  close "half each f1" 50. (Flow_net.rate net f1);
  close "half each f2" 50. (Flow_net.rate net f2);
  Flow_net.cancel net f2;
  close "full after cancel" 100. (Flow_net.rate net f1)

let test_flow_rate_cap () =
  let net = Flow_net.create () in
  let n = Flow_net.add_node net ~name:"n" ~capacity:100. in
  let capped = Flow_net.add_flow net ~rate_cap:10. ~through:[ (n, 1) ] ~bytes:100. () in
  let free = Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:100. () in
  close "capped" 10. (Flow_net.rate net capped);
  (* Max-min: the uncapped flow gets the leftover. *)
  close "leftover" 90. (Flow_net.rate net free)

let test_flow_multiplicity () =
  (* An intra-device copy consumes read and write shares of the same
     enclosure: rate is half the capacity. *)
  let net = Flow_net.create () in
  let n = Flow_net.add_node net ~name:"n" ~capacity:100. in
  let f = Flow_net.add_flow net ~through:[ (n, 2) ] ~bytes:100. () in
  close "half capacity" 50. (Flow_net.rate net f)

let test_flow_reservation () =
  let net = Flow_net.create () in
  let n = Flow_net.add_node net ~name:"n" ~capacity:100. in
  Flow_net.set_reservation net n 30.;
  let f = Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:100. () in
  close "after reservation" 70. (Flow_net.rate net f)

let test_flow_partial_advance () =
  let net = Flow_net.create () in
  let n = Flow_net.add_node net ~name:"n" ~capacity:10. in
  let f = Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:100. () in
  let completed = Flow_net.advance net 4. in
  Alcotest.(check int) "not yet" 0 (List.length completed);
  close "remaining" 60. (Flow_net.remaining net f);
  let completed = Flow_net.advance net 6. in
  Alcotest.(check int) "now" 1 (List.length completed)

let test_flow_validation () =
  let net = Flow_net.create () in
  let n = Flow_net.add_node net ~name:"n" ~capacity:10. in
  check_raises_invalid "zero bytes" (fun () ->
      Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:0. ());
  check_raises_invalid "no nodes" (fun () ->
      Flow_net.add_flow net ~through:[] ~bytes:10. ());
  check_raises_invalid "duplicate node" (fun () ->
      Flow_net.add_node net ~name:"n" ~capacity:5.);
  check_raises_invalid "non-positive capacity" (fun () ->
      Flow_net.add_node net ~name:"m" ~capacity:0.)

let test_flow_copy_independent () =
  (* Two identical networks, one of them copied: whatever the copy does,
     the copied original keeps advancing exactly as its twin. *)
  let build () =
    let net = Flow_net.create () in
    let a = Flow_net.add_node net ~name:"a" ~capacity:100. in
    let b = Flow_net.add_node net ~name:"b" ~capacity:40. in
    let f1 = Flow_net.add_flow net ~through:[ (a, 1); (b, 1) ] ~bytes:400. () in
    let f2 =
      Flow_net.add_flow net ~rate_cap:30. ~through:[ (a, 2) ] ~bytes:900. ()
    in
    ignore (Flow_net.advance net 2.);
    (net, [ a; b ], [ f1; f2 ])
  in
  let bits x = Int64.bits_of_float x in
  let numbers (net, nodes, flows) =
    List.concat_map
      (fun f -> [ bits (Flow_net.rate net f); bits (Flow_net.remaining net f) ])
      flows
    @ List.map (fun n -> bits (Flow_net.node_bytes net n)) nodes
  in
  let ((net, nodes, flows) as original) = build () in
  let twin = build () in
  let copy, flow_of = Flow_net.copy net in
  Alcotest.(check (list int64)) "the copy starts in the original's state"
    (numbers original)
    (numbers (copy, nodes, List.map flow_of flows));
  ignore (Flow_net.add_flow copy ~through:[ (List.nth nodes 1, 1) ] ~bytes:50. ());
  Flow_net.cancel copy (flow_of (List.nth flows 1));
  ignore (Flow_net.advance copy 5.);
  Alcotest.(check (list int64)) "the copy's changes leave the original"
    (numbers twin) (numbers original);
  let advance (net, _, _) = List.length (Flow_net.advance net 3.) in
  Alcotest.(check int) "the same completions" (advance twin) (advance original);
  Alcotest.(check (list int64)) "and the same numbers after advancing"
    (numbers twin) (numbers original);
  let _, _, foreign = twin in
  check_raises_invalid "a flow of another network" (fun () ->
      flow_of (List.hd foreign))

let prop_flow_rates_respect_capacity =
  QCheck.Test.make ~name:"allocated rates never exceed capacity" ~count:100
    QCheck.(pair (float_range 10. 1000.) (int_range 1 10))
    (fun (capacity, nflows) ->
      let net = Flow_net.create () in
      let n = Flow_net.add_node net ~name:"n" ~capacity in
      let flows =
        List.init nflows (fun _ ->
            Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:1000. ())
      in
      let total = List.fold_left (fun acc f -> acc +. Flow_net.rate net f) 0. flows in
      total <= capacity *. (1. +. 1e-9))

let prop_flow_fairness =
  QCheck.Test.make ~name:"equal flows get equal rates" ~count:50
    QCheck.(pair (float_range 10. 1000.) (int_range 2 8))
    (fun (capacity, nflows) ->
      let net = Flow_net.create () in
      let n = Flow_net.add_node net ~name:"n" ~capacity in
      let flows =
        List.init nflows (fun _ ->
            Flow_net.add_flow net ~through:[ (n, 1) ] ~bytes:1000. ())
      in
      let rates = List.map (Flow_net.rate net) flows in
      let r0 = List.hd rates in
      List.for_all (fun r -> Float.abs (r -. r0) < 1e-6) rates)

let prop_flow_conservation_multi_node =
  (* Random topologies: three nodes with reservations, flows through random
     node subsets with multiplicities and optional caps. At no node may the
     allocated rates (weighted by multiplicity) exceed capacity minus
     reservation, and no flow may exceed its cap. *)
  QCheck.Test.make
    ~name:"node rates bounded by capacity minus reservation" ~count:200
    QCheck.(
      pair
        (list_of_size (Gen.return 3)
           (pair (float_range 20. 500.) (float_range 0. 0.8)))
        (list_of_size (Gen.int_range 1 10)
           (quad (int_range 1 7) (int_range 1 2) (float_range 1. 5000.)
              (option (float_range 1. 50.)))))
    (fun (node_specs, flow_specs) ->
      let net = Flow_net.create () in
      let nodes =
        List.mapi
          (fun i (capacity, resv_frac) ->
            let n =
              Flow_net.add_node net ~name:("n" ^ string_of_int i) ~capacity
            in
            let resv = resv_frac *. capacity in
            Flow_net.set_reservation net n resv;
            (n, capacity, resv))
          node_specs
      in
      let node_arr = Array.of_list nodes in
      let flows =
        List.map
          (fun (mask, mult, bytes, rate_cap) ->
            let through =
              List.filter_map
                (fun i ->
                  if mask land (1 lsl i) <> 0 then
                    let n, _, _ = node_arr.(i) in
                    Some (n, mult)
                  else None)
                [ 0; 1; 2 ]
            in
            (Flow_net.add_flow net ?rate_cap ~through ~bytes (), through,
             rate_cap))
          flow_specs
      in
      let tol = 1e-6 in
      let caps_respected =
        List.for_all
          (fun (f, _, cap) ->
            match cap with
            | Some c -> Flow_net.rate net f <= c +. tol
            | None -> true)
          flows
      in
      let conserved =
        List.for_all
          (fun (node, capacity, resv) ->
            let used =
              List.fold_left
                (fun acc (f, through, _) ->
                  List.fold_left
                    (fun acc (n, m) ->
                      if n == node then
                        acc +. (Flow_net.rate net f *. float_of_int m)
                      else acc)
                    acc through)
                0. flows
            in
            used <= capacity -. resv +. (tol *. capacity))
          nodes
      in
      caps_respected && conserved)

let prop_flow_completion_delivers_bytes =
  (* Drive the network to quiescence with the simulator's own loop
     (next_completion + advance). Every flow must complete exactly once
     with zero remaining, and the node's cumulative byte counter must equal
     the sum of requested bytes weighted by multiplicity (each completion
     may round away up to one sub-byte remainder). *)
  QCheck.Test.make ~name:"completed flows deliver exactly their bytes"
    ~count:200
    QCheck.(
      pair (float_range 50. 500.)
        (list_of_size (Gen.int_range 1 8)
           (pair (float_range 10. 2000.) (int_range 1 2))))
    (fun (capacity, specs) ->
      let net = Flow_net.create () in
      let n = Flow_net.add_node net ~name:"n" ~capacity in
      let flows =
        List.map
          (fun (bytes, mult) ->
            (Flow_net.add_flow net ~through:[ (n, mult) ] ~bytes (), bytes,
             mult))
          specs
      in
      let completed = ref 0 in
      let fuel = ref 200 in
      let rec run () =
        let dt = Flow_net.next_completion net in
        if Float.is_finite dt && !fuel > 0 then begin
          decr fuel;
          completed := !completed + List.length (Flow_net.advance net dt);
          run ()
        end
      in
      run ();
      let requested =
        List.fold_left
          (fun acc (_, bytes, mult) -> acc +. (bytes *. float_of_int mult))
          0. flows
      in
      !fuel > 0
      && Flow_net.active_count net = 0
      && !completed = List.length flows
      && List.for_all (fun (f, _, _) -> Flow_net.remaining net f = 0.) flows
      && Float.abs (Flow_net.node_bytes net n -. requested)
         <= 2. *. float_of_int (List.length flows))

(* --- Sim vs model --- *)

let config = { Sim.warmup = Duration.weeks 12.; outage = None; record_events = false }

let model_worst_loss scenario =
  match (Evaluate.run Baseline.design scenario).Evaluate.data_loss.Data_loss.loss with
  | Data_loss.Updates d -> Duration.to_seconds d
  | Data_loss.Entire_object -> infinity

let measured_loss (m : Sim.measured) =
  match m.Sim.data_loss with
  | Data_loss.Updates d -> Duration.to_seconds d
  | Data_loss.Entire_object -> infinity

let test_sim_object_recovery () =
  let m = Sim.run ~config Baseline.design Baseline.scenario_object in
  Alcotest.(check (option int)) "from split mirror" (Some 1) m.Sim.source_level;
  Alcotest.(check bool) "loss within worst case" true
    (measured_loss m <= model_worst_loss Baseline.scenario_object +. 1.);
  match m.Sim.recovery_time with
  | Some rt -> Alcotest.(check bool) "sub-second" true (Duration.to_seconds rt < 1.)
  | None -> Alcotest.fail "no recovery time"

let test_sim_array_recovery () =
  let m = Sim.run ~config Baseline.design Baseline.scenario_array in
  Alcotest.(check (option int)) "from backup" (Some 2) m.Sim.source_level;
  Alcotest.(check bool) "loss bounded" true
    (measured_loss m <= model_worst_loss Baseline.scenario_array +. 1.);
  match m.Sim.recovery_time with
  | Some rt ->
    let hours = Duration.to_hours rt in
    (* Transfer-dominated: between 1 and 3 hours. *)
    Alcotest.(check bool) "plausible RT" true (hours > 1. && hours < 3.)
  | None -> Alcotest.fail "no recovery time"

let test_sim_site_recovery () =
  let m = Sim.run ~config Baseline.design Baseline.scenario_site in
  Alcotest.(check (option int)) "from vault" (Some 3) m.Sim.source_level;
  Alcotest.(check bool) "loss bounded" true
    (measured_loss m <= model_worst_loss Baseline.scenario_site +. 1.);
  match m.Sim.recovery_time with
  | Some rt ->
    let hours = Duration.to_hours rt in
    (* Dominated by the 24 hr shipment. *)
    Alcotest.(check bool) "plausible RT" true (hours > 24. && hours < 30.)
  | None -> Alcotest.fail "no recovery time"

let test_sim_rp_counts () =
  let m = Sim.run ~config Baseline.design Baseline.scenario_object in
  (* After 12 weeks: 4 split mirrors, 4 backups retained, and at least one
     vault RP. *)
  Alcotest.(check int) "split mirrors" 4 m.Sim.rp_count.(1);
  Alcotest.(check int) "backups" 4 m.Sim.rp_count.(2);
  Alcotest.(check bool) "vault has RPs" true (m.Sim.rp_count.(3) >= 1)

let test_sim_rp_ages_within_model_lags () =
  let m = Sim.run ~config Baseline.design Baseline.scenario_object in
  let h = Baseline.design.Design.hierarchy in
  for j = 1 to 3 do
    match m.Sim.rp_newest_age.(j) with
    | Some age ->
      let worst = Storage_hierarchy.Hierarchy.worst_lag h j in
      if Duration.compare age worst > 0 then
        Alcotest.failf "level %d newest age %s exceeds model worst lag %s" j
          (Duration.to_string age) (Duration.to_string worst)
    | None -> Alcotest.failf "level %d has no RPs" j
  done

let test_sim_phase_sweep_bounded () =
  let scenario = Baseline.scenario_array in
  let worst = model_worst_loss scenario in
  let offsets = List.init 7 (fun i -> Duration.hours (float_of_int i *. 23.)) in
  let runs = Sim.sweep_failure_phase ~config Baseline.design scenario ~offsets in
  List.iter
    (fun m ->
      if measured_loss m > worst +. 1. then
        Alcotest.failf "measured loss %.0f exceeds worst case %.0f"
          (measured_loss m) worst)
    runs

let test_sim_asyncb () =
  let d = Whatif.async_mirror ~links:1 in
  let cfg = { Sim.warmup = Duration.days 2.; outage = None; record_events = false } in
  let m = Sim.run ~config:cfg d Baseline.scenario_array in
  Alcotest.(check (option int)) "from mirror" (Some 1) m.Sim.source_level;
  Alcotest.(check bool) "tiny loss" true (measured_loss m <= 120. +. 1.);
  match m.Sim.recovery_time with
  | Some rt ->
    (* Strict execution: at least the model's (overlapped) estimate. *)
    Alcotest.(check bool) "about 21 hours" true
      (Duration.to_hours rt > 20. && Duration.to_hours rt < 22.)
  | None -> Alcotest.fail "no recovery"

let test_sim_asyncb_site_strict_provisioning () =
  let d = Whatif.async_mirror ~links:10 in
  let cfg = { Sim.warmup = Duration.days 2.; outage = None; record_events = false } in
  let m = Sim.run ~config:cfg d Baseline.scenario_site in
  match m.Sim.recovery_time with
  | Some rt ->
    (* Strict semantics: 9 hr provisioning then ~2.1 hr transfer; the
       analytical model (overlapped) reports 9 hr. *)
    Alcotest.(check bool) "provisioning then transfer" true
      (Duration.to_hours rt >= 9.
      && Duration.to_hours rt < 12.)
  | None -> Alcotest.fail "no recovery"

let test_sim_erasure_design () =
  (* The erasure extension runs through the same event machinery: hourly
     coded batches over the WAN, day-deep retention, reconstruction within
     the model's 2-hour worst case. *)
  let d = Whatif.erasure_coded ~fragments:8 ~required:5 ~links:1 in
  let cfg =
    { Sim.warmup = Duration.days 3.; outage = None; record_events = false }
  in
  let m = Sim.run ~config:cfg d Baseline.scenario_array in
  Alcotest.(check (option int)) "from the fragment store" (Some 1)
    m.Sim.source_level;
  Alcotest.(check bool) "day of versions retained" true (m.Sim.rp_count.(1) >= 20);
  Alcotest.(check bool) "loss within 2 hours" true
    (measured_loss m <= (2. *. 3600.) +. 1.);
  (match m.Sim.recovery_time with
  | Some rt ->
    (* 1360 GiB over one OC-3: about 21 hours. *)
    Alcotest.(check bool) "transfer-bound recovery" true
      (Duration.to_hours rt > 20. && Duration.to_hours rt < 22.)
  | None -> Alcotest.fail "no recovery")

let test_sim_primary_intact () =
  let m =
    Sim.run ~config Baseline.design (Scenario.now (Storage_device.Location.Device "tape-library"))
  in
  Alcotest.(check (option int)) "no recovery needed" (Some 0) m.Sim.source_level;
  close "no loss" 0. (measured_loss m)
  [@@warning "-33"]

let test_sim_rollback_total_loss () =
  let scenario =
    Scenario.make ~scope:Storage_device.Location.Data_object
      ~target_age:(Duration.weeks 20.) ~object_size:(Size.mib 1.) ()
  in
  (* After only 12 weeks of operation nothing is 20 weeks old. *)
  let m = Sim.run ~config Baseline.design scenario in
  Alcotest.(check bool) "total loss" true (m.Sim.data_loss = Data_loss.Entire_object)

let test_sim_measured_utilization () =
  let m = Sim.run ~config Baseline.design Baseline.scenario_object in
  let util name =
    match List.assoc_opt name m.Sim.bandwidth_utilization with
    | Some u -> u
    | None -> Alcotest.failf "no utilization for %s" name
  in
  (* The model provisions bandwidth for the propagation windows (8.1 MiB/s
     for the 48 hr backup window); the simulator measures the time-average
     (1360 GiB per week = 2.25 MiB/s), so measured <= modeled, and the
     measured value must cover at least the static reservations. *)
  let array = util "disk-array" and tape = util "tape-library" in
  Alcotest.(check bool) "array within model" true (array <= 0.0238 +. 1e-5);
  Alcotest.(check bool) "array at least reservations" true (array >= 0.008);
  Alcotest.(check bool) "tape within model" true (tape <= 0.0336 +. 1e-5);
  Alcotest.(check bool) "tape carries backups" true (tape > 0.005)

let test_sim_outage_validates_degraded_model () =
  (* Run with the backup level down for the last week of warmup: measured
     loss must not exceed the Degraded model's worst case, and must exceed
     the healthy sim's loss. *)
  let outage = Duration.weeks 1. in
  let cfg = { config with outage = Some (2, outage) } in
  let degraded_worst =
    match
      (Degraded.evaluate Baseline.design ~disabled_level:2 ~outage
         Baseline.scenario_array).Degraded.data_loss.Data_loss.loss
    with
    | Data_loss.Updates d -> Duration.to_seconds d
    | Data_loss.Entire_object -> infinity
  in
  let m = Sim.run ~config:cfg Baseline.design Baseline.scenario_array in
  let healthy = Sim.run ~config Baseline.design Baseline.scenario_array in
  Alcotest.(check bool) "within degraded worst case" true
    (measured_loss m <= degraded_worst +. 1.);
  Alcotest.(check bool) "worse than healthy" true
    (measured_loss m > measured_loss healthy)

let test_sim_timeline () =
  let cfg = { config with record_events = true } in
  let m = Sim.run ~config:cfg Baseline.design Baseline.scenario_array in
  let messages = List.map snd m.Sim.timeline in
  let has needle =
    List.exists
      (fun msg ->
        let nl = String.length needle and ml = String.length msg in
        let rec scan i =
          i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
        in
        nl = 0 || scan 0)
      messages
  in
  Alcotest.(check bool) "non-empty" true (m.Sim.timeline <> []);
  Alcotest.(check bool) "records captures" true (has "stores RP");
  Alcotest.(check bool) "records the failure" true (has "FAILURE");
  Alcotest.(check bool) "records recovery" true (has "recovery complete");
  (* Times are chronological. *)
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      Duration.compare a b <= 0 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted m.Sim.timeline);
  (* Recording off => empty. *)
  let quiet = Sim.run ~config Baseline.design Baseline.scenario_array in
  Alcotest.(check (list (pair unit unit))) "empty when off" []
    (List.map (fun _ -> ((), ())) quiet.Sim.timeline)

let test_sim_outage_validation () =
  check_raises_invalid "outage level 0" (fun () ->
      Sim.run
        ~config:{ config with outage = Some (0, Duration.hours 1.) }
        Baseline.design Baseline.scenario_array)

let prop_sim_loss_bounded_random_phase =
  QCheck.Test.make ~name:"sim loss never exceeds the analytical worst case"
    ~count:15
    (QCheck.float_range 0. 672.)
    (fun offset_h ->
      let cfg =
        {
          Sim.warmup = Duration.add (Duration.weeks 12.) (Duration.hours offset_h);
          outage = None;
          record_events = false;
        }
      in
      let m = Sim.run ~config:cfg Baseline.design Baseline.scenario_array in
      measured_loss m <= model_worst_loss Baseline.scenario_array +. 1.)

(* --- Recorded warm-ups --- *)

let bits x = Printf.sprintf "%Lx" (Int64.bits_of_float x)
let duration_bits d = bits (Duration.to_seconds d)
let option_bits f = function None -> "none" | Some x -> f x

(* Each compared field of a measurement, floats as their bit patterns. *)
let measured_fields (m : Sim.measured) =
  let joined f xs = String.concat "," (List.map f xs) in
  [
    ("source_level", option_bits string_of_int m.Sim.source_level);
    ( "data_loss",
      match m.Sim.data_loss with
      | Data_loss.Updates d -> duration_bits d
      | Data_loss.Entire_object -> "entire object" );
    ("recovery_time", option_bits duration_bits m.Sim.recovery_time);
    ("rp_count", joined string_of_int (Array.to_list m.Sim.rp_count));
    ( "rp_newest_age",
      joined (option_bits duration_bits) (Array.to_list m.Sim.rp_newest_age) );
    ( "bandwidth_utilization",
      joined (fun (name, u) -> name ^ "=" ^ bits u) m.Sim.bandwidth_utilization );
  ]

let check_same_measured case ~expected actual =
  List.iter2
    (fun (field, e) (_, a) -> Alcotest.(check string) (case ^ ": " ^ field) e a)
    (measured_fields expected) (measured_fields actual)

let warm_until = Duration.weeks 2.
let week_s = Duration.to_seconds (Duration.weeks 1.)

(* The warm-ups a resumed run must get exactly right: zero (the set-up
   state itself), exactly on a kept state's clock and just past it, on an
   instant a from-scratch run handles an event at, the recording's
   [until], and a week past it. *)
let resume_warmups design warm =
  let until_s = Duration.to_seconds warm_until in
  let clocks = List.map Duration.to_seconds (Sim.warm_clocks warm) in
  let kept = List.nth clocks (List.length clocks / 2) in
  let event =
    let m =
      Sim.run
        ~config:{ config with warmup = warm_until; record_events = true }
        design Baseline.scenario_object
    in
    let times =
      List.filter_map
        (fun (t, _) ->
          let t = Duration.to_seconds t in
          if t > 0. && t < until_s then Some t else None)
        m.Sim.timeline
    in
    List.nth times (List.length times / 2)
  in
  [
    ("zero", 0.);
    ("a kept clock", kept);
    ("just past a kept clock", Float.succ kept);
    ("an event time", event);
    ("until", until_s);
    ("a week past until", until_s +. week_s);
  ]

let test_warm_kept_states () =
  let warm = Sim.warm Baseline.design ~until:warm_until in
  let clocks = List.map Duration.to_seconds (Sim.warm_clocks warm) in
  Alcotest.(check (float 0.)) "the set-up first" 0. (List.hd clocks);
  Alcotest.(check bool) "at most 64" true (List.length clocks <= 64);
  Alcotest.(check bool) "more than the set-up" true (List.length clocks > 1);
  Alcotest.(check bool) "ascending, all before until" true
    (List.sort_uniq Float.compare clocks = clocks
    && List.for_all (fun c -> c < Duration.to_seconds warm_until) clocks)

let test_warm_resume_exact () =
  List.iter
    (fun (name, design) ->
      let warm = Sim.warm design ~until:warm_until in
      List.iter
        (fun (label, warmup_s) ->
          let config = { config with warmup = Duration.seconds warmup_s } in
          List.iter
            (fun scenario ->
              let case =
                Printf.sprintf "%s, %s, %s" name
                  (Storage_device.Location.scope_name
                     (List.hd (Scenario.events scenario)).Scenario.scope)
                  label
              in
              check_same_measured case
                ~expected:(Sim.run ~config design scenario)
                (Sim.run ~warm ~config design scenario))
            [
              Baseline.scenario_object;
              Baseline.scenario_array;
              Baseline.scenario_site;
            ])
        (resume_warmups design warm))
    (Whatif.all
    @ [ ("erasure", Whatif.erasure_coded ~fragments:9 ~required:6 ~links:10) ])

let injected_fields (i : Sim.injected) =
  [
    duration_bits i.Sim.injected_at;
    option_bits string_of_int i.Sim.source_level;
    (match i.Sim.data_loss with
    | Data_loss.Updates d -> duration_bits d
    | Data_loss.Entire_object -> "entire object");
    option_bits duration_bits i.Sim.recovery_end;
    string_of_int i.Sim.replans;
  ]

let test_warm_run_events_exact () =
  (* Two overlapping failures (a site disaster an hour into an array
     rebuild), and the re-plan case (the tape library lost an hour into a
     rebuild from backup), resumed inside the recording and past it. *)
  let scope_of s = (List.hd (Scenario.events s)).Scenario.scope in
  let ev scope at = Scenario.event ~scope ~at () in
  let array = scope_of Baseline.scenario_array in
  let overlapping =
    Scenario.of_events
      [ ev array Duration.zero; ev (scope_of Baseline.scenario_site) (Duration.hours 1.) ]
  in
  let replanned =
    Scenario.of_events
      [
        ev array Duration.zero;
        ev (Storage_device.Location.Device "tape-library") (Duration.hours 1.);
      ]
  in
  let warm = Sim.warm Baseline.design ~until:warm_until in
  List.iter
    (fun (name, scenario) ->
      List.iter
        (fun warmup ->
          let config = { config with warmup } in
          let fields run = List.map injected_fields (run ()) in
          Alcotest.(check (list (list string)))
            (Printf.sprintf "%s at %s" name (Duration.to_string warmup))
            (fields (fun () -> Sim.run_events ~config Baseline.design scenario))
            (fields (fun () ->
                 Sim.run_events ~warm ~config Baseline.design scenario)))
        [ Duration.days 10.; Duration.weeks 12. ])
    [ ("overlapping", overlapping); ("re-planned", replanned) ]

let test_warm_restrictions () =
  let warm = Sim.warm Baseline.design ~until:(Duration.days 3.) in
  let scenario = Baseline.scenario_array in
  let outage = { config with outage = Some (2, Duration.hours 1.) } in
  let timeline = { config with record_events = true } in
  check_raises_invalid "run with an outage" (fun () ->
      Sim.run ~warm ~config:outage Baseline.design scenario);
  check_raises_invalid "run recording a timeline" (fun () ->
      Sim.run ~warm ~config:timeline Baseline.design scenario);
  check_raises_invalid "run_events with an outage" (fun () ->
      Sim.run_events ~warm ~config:outage Baseline.design scenario);
  check_raises_invalid "run_events recording a timeline" (fun () ->
      Sim.run_events ~warm ~config:timeline Baseline.design scenario);
  check_raises_invalid "another design" (fun () ->
      Sim.run ~warm ~config Whatif.weekly_vault scenario)

(* --- Allocation budget --- *)

(* Minor-heap words one [Sim.run] allocates per simulated event, at the
   default config under the array scenario. Allocation is deterministic,
   unlike throughput: this pins the per-event cost without depending on
   the host, and fails if an eager timeline [sprintf] (or another
   per-event allocation of that size) returns to the event path. The
   event count comes from a separate run with stats recording on, so the
   measured run is the production configuration. *)
let words_per_event design =
  let scenario = Baseline.scenario_array in
  let events = Storage_obs.Counter.make "sim.events" in
  let was_enabled = Storage_obs.enabled () in
  Storage_obs.enable ();
  let before = Storage_obs.Counter.value events in
  ignore (Sim.run design scenario);
  let n = Storage_obs.Counter.value events - before in
  if not was_enabled then Storage_obs.disable ();
  let w0 = Gc.minor_words () in
  ignore (Sim.run design scenario);
  let words = Gc.minor_words () -. w0 in
  (n, words /. float_of_int n)

let test_sim_alloc_budget () =
  List.iter
    (fun (label, design, budget) ->
      let n, per_event = words_per_event design in
      Printf.printf "%s: %d events, %.1f minor words/event (budget %.0f)\n"
        label n per_event budget;
      if n = 0 then Alcotest.failf "%s: no events counted" label;
      if per_event > budget then
        Alcotest.failf "%s: %.1f minor words per event exceeds the budget %.0f"
          label per_event budget)
    [
      ("baseline", Baseline.design, 60.);
      ("async mirror x10", Whatif.async_mirror ~links:10, 100.);
    ]

(* Minor-heap words a resumed [Sim.run] allocates, averaged over 20
   warm-ups spread across the recording, and the words [Sim.warm]
   allocates beyond a from-scratch run to the same horizon. A resumed run
   ticks at most 1/64 of the recording; these fail if trials go back to
   simulating their whole warm-up or the recording keeps every tick. *)
let resumed_words design ~until =
  let warm = Sim.warm design ~until in
  let until_s = Duration.to_seconds until in
  let runs = 20 in
  let w0 = Gc.minor_words () in
  for k = 0 to runs - 1 do
    let warmup =
      Duration.seconds (until_s *. (float_of_int k +. 0.5) /. float_of_int runs)
    in
    ignore
      (Sim.run ~warm ~config:{ config with warmup } design
         Baseline.scenario_array)
  done;
  let resumed = (Gc.minor_words () -. w0) /. float_of_int runs in
  let w0 = Gc.minor_words () in
  ignore
    (Sim.run ~config:{ config with warmup = until } design
       Baseline.scenario_array);
  let scratch = Gc.minor_words () -. w0 in
  let w0 = Gc.minor_words () in
  ignore (Sim.warm design ~until);
  (resumed, Gc.minor_words () -. w0 -. scratch)

let test_warm_alloc_budget () =
  List.iter
    (fun (label, design, until, budget) ->
      let resumed, extra = resumed_words design ~until in
      Printf.printf
        "%s: %.0f minor words per resumed run (budget %.0f); recording \
         %+.0f words over a from-scratch run (budget 10000)\n"
        label resumed budget extra;
      if resumed > budget then
        Alcotest.failf "%s: %.0f minor words per resumed run exceeds %.0f"
          label resumed budget;
      if extra > 10_000. then
        Alcotest.failf
          "%s: recording allocates %.0f words more than a from-scratch run"
          label extra)
    [
      ("baseline", Baseline.design, Duration.weeks 12., 2_000.);
      ( "async mirror x10",
        Whatif.async_mirror ~links:10,
        Duration.days 8.,
        30_000. );
    ]

let suite =
  [
    ( "sim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_queue_ordering;
        Alcotest.test_case "fifo on ties" `Quick test_queue_fifo_ties;
        Alcotest.test_case "drain until" `Quick test_queue_drain_until;
        Alcotest.test_case "drain-until boundaries" `Quick
          test_queue_drain_until_boundaries;
        Alcotest.test_case "validation" `Quick test_queue_validation;
        Alcotest.test_case "copy is independent" `Quick
          test_queue_copy_independent;
        qcheck prop_queue_pops_sorted;
        qcheck prop_queue_fifo_stable_on_ties;
        qcheck prop_queue_drain_until_partitions;
      ] );
    ( "sim.flow_net",
      [
        Alcotest.test_case "single bottleneck" `Quick test_flow_single;
        Alcotest.test_case "fair share" `Quick test_flow_fair_share;
        Alcotest.test_case "rate caps" `Quick test_flow_rate_cap;
        Alcotest.test_case "intra-device multiplicity" `Quick test_flow_multiplicity;
        Alcotest.test_case "reservations" `Quick test_flow_reservation;
        Alcotest.test_case "partial advance" `Quick test_flow_partial_advance;
        Alcotest.test_case "validation" `Quick test_flow_validation;
        Alcotest.test_case "copy is independent" `Quick
          test_flow_copy_independent;
        qcheck prop_flow_rates_respect_capacity;
        qcheck prop_flow_fairness;
        qcheck prop_flow_conservation_multi_node;
        qcheck prop_flow_completion_delivers_bytes;
      ] );
    ( "sim.execution",
      [
        Alcotest.test_case "object recovery" `Quick test_sim_object_recovery;
        Alcotest.test_case "array recovery" `Quick test_sim_array_recovery;
        Alcotest.test_case "site recovery" `Quick test_sim_site_recovery;
        Alcotest.test_case "retained RP counts" `Quick test_sim_rp_counts;
        Alcotest.test_case "RP ages within model lags" `Quick
          test_sim_rp_ages_within_model_lags;
        Alcotest.test_case "phase sweep bounded" `Slow test_sim_phase_sweep_bounded;
        Alcotest.test_case "async batch mirror" `Quick test_sim_asyncb;
        Alcotest.test_case "strict provisioning semantics" `Quick
          test_sim_asyncb_site_strict_provisioning;
        Alcotest.test_case "erasure-coded design" `Quick test_sim_erasure_design;
        Alcotest.test_case "primary intact" `Quick test_sim_primary_intact;
        Alcotest.test_case "rollback beyond history" `Quick
          test_sim_rollback_total_loss;
        Alcotest.test_case "measured utilization" `Quick
          test_sim_measured_utilization;
        Alcotest.test_case "outage validates Degraded model" `Quick
          test_sim_outage_validates_degraded_model;
        Alcotest.test_case "event timeline" `Quick test_sim_timeline;
        Alcotest.test_case "outage validation" `Quick test_sim_outage_validation;
        Alcotest.test_case "allocation budget per event" `Quick
          test_sim_alloc_budget;
        qcheck prop_sim_loss_bounded_random_phase;
      ] );
    ( "sim.warm",
      [
        Alcotest.test_case "kept states" `Quick test_warm_kept_states;
        Alcotest.test_case "resumed run is bit-identical" `Slow
          test_warm_resume_exact;
        Alcotest.test_case "resumed run_events is bit-identical" `Quick
          test_warm_run_events_exact;
        Alcotest.test_case "outage, timeline, design rejected" `Quick
          test_warm_restrictions;
        Alcotest.test_case "allocation budget per resumed run" `Quick
          test_warm_alloc_budget;
      ] );
  ]
