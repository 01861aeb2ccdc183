(* Seeded generators for fuzz cases.

   All randomness flows from one [Prng.t] (splitmix64) per case, so a
   (seed, index) pair fully determines the generated design, its mutation
   factor and its scenarios — across runs, machines and job counts. *)

open Storage_units
open Storage_workload
open Storage_device
open Storage_model
open Storage_optimize

type kind = Valid | Mutant of float

type case = {
  index : int;
  seed : int64;
  kind : kind;
  design : Design.t;
  scenarios : (string * Scenario.t) list;
}

let choose rng xs = List.nth xs (Prng.int rng (List.length xs))
let log_uniform rng lo hi = Float.exp (Prng.float_range rng (Float.log lo) (Float.log hi))

let workload rng =
  let cap_gib = log_uniform rng 50. 1500. in
  let update_kib = Prng.float_range rng 100. 1200. in
  let access_kib = update_kib *. Prng.float_range rng 1.2 4. in
  let burst = Prng.float_range rng 2. 16. in
  (* A decreasing three-point unique-update curve. The ratios keep the
     written volume (rate x window) non-decreasing in the window, which
     Batch_curve.of_samples requires. *)
  let r1 = update_kib *. Prng.float_range rng 0.6 0.95 in
  let r3 = r1 *. Prng.float_range rng 0.35 0.9 in
  let r2 = Float.sqrt (r1 *. r3) in
  Workload.make ~name:"fuzz"
    ~data_capacity:(Size.gib cap_gib)
    ~avg_access_rate:(Rate.kib_per_sec access_kib)
    ~avg_update_rate:(Rate.kib_per_sec update_kib)
    ~burst_multiplier:burst
    ~batch_curve:
      (Batch_curve.of_samples
         [
           (Duration.minutes 1., Rate.kib_per_sec r1);
           (Duration.hours 12., Rate.kib_per_sec r2);
           (Duration.weeks 1., Rate.kib_per_sec r3);
         ])

let space rng =
  {
    Candidate.pit_techniques = [ choose rng [ `Split_mirror; `Snapshot ] ];
    pit_accumulations =
      [ choose rng [ Duration.hours 6.; Duration.hours 12.; Duration.hours 24. ] ];
    pit_retentions = [ choose rng [ 2; 3; 4 ] ];
    backup_accumulations =
      [ choose rng [ Duration.hours 24.; Duration.hours 48.; Duration.weeks 1. ] ];
    backup_retention_horizon = Duration.weeks 4.;
    vault_accumulations = [ choose rng [ Duration.weeks 1.; Duration.weeks 4. ] ];
    vault_retention_horizon = Duration.years 1.;
    mirror_links = [ choose rng [ 1; 2; 4; 8 ] ];
  }

let design rng =
  (* Valid by construction: Candidate.enumerate only yields designs that
     pass Design.validate. A heavy random workload can empty the
     (singleton) grid, so retry with fresh draws, falling back to the
     deterministic seeded pool. *)
  let rec attempt tries =
    if tries = 0 then choose rng (Seeded.pool ())
    else begin
      let kit =
        {
          (Storage_presets.Whatif.search_kit ()) with
          Candidate.workload = workload rng;
        }
      in
      match List.of_seq (Candidate.enumerate kit (space rng)) with
      | [] -> attempt (tries - 1)
      | designs -> choose rng designs
    end
  in
  attempt 8

let frontier_factor d =
  (* The workload growth factor at which the design stops validating —
     the lint feasibility frontier, located by geometric bisection. *)
  let valid_at f = Result.is_ok (Design.validate (Seeded.scaled ~factor:f d)) in
  let lo = 0.25 and hi = 64. in
  if valid_at hi then None
  else if not (valid_at lo) then Some lo
  else begin
    let rec bisect lo hi n =
      if n = 0 then Some hi
      else begin
        let mid = Float.sqrt (lo *. hi) in
        if valid_at mid then bisect mid hi (n - 1) else bisect lo mid (n - 1)
      end
    in
    bisect lo hi 12
  end

let mutant rng base =
  let factor =
    match frontier_factor base with
    | Some f when Prng.float rng < 0.7 ->
      (* Boundary-biased: straddle the frontier so roughly half the
         mutants are barely valid and half barely invalid. *)
      f *. Prng.float_range rng 0.85 1.15
    | _ -> log_uniform rng 0.25 64.
  in
  (Seeded.scaled ~factor base, factor)

let scenarios rng d =
  let primary = List.hd (Design.devices d) in
  let site = Location.site primary.Device.location in
  let base =
    [
      ("array-failure", Scenario.now (Location.Device primary.Device.name));
      ("site-disaster", Scenario.now (Location.Site site));
    ]
  in
  if Prng.float rng < 0.3 then
    base
    @ [
        ( "user-error",
          Scenario.make ~scope:Location.Data_object
            ~target_age:(Duration.hours (Prng.float_range rng 0. 48.))
            ~object_size:(Size.mib 1.) () );
      ]
  else base

let case ~seed ~index =
  let rng = Prng.create ~seed in
  let mutate = Prng.float rng >= 0.65 in
  let base = design rng in
  let kind, d =
    if mutate then begin
      let d, factor = mutant rng base in
      (Mutant factor, d)
    end
    else (Valid, base)
  in
  { index; seed; kind; design = d; scenarios = scenarios rng d }
