open Storage_units

type weighted = { scenario : Scenario.t; frequency_per_year : float }

type exposure = {
  weighted : weighted;
  report : Evaluate.report;
  per_incident_penalty : Money.t;
  expected_annual_penalty : Money.t;
}

type t = {
  design_name : string;
  exposures : exposure list;
  annual_outlays : Money.t;
  expected_annual_penalty : Money.t;
  expected_annual_cost : Money.t;
}

let assess design weighted_list =
  if weighted_list = [] then invalid_arg "Risk.assess: no scenarios";
  List.iter
    (fun w ->
      if w.frequency_per_year < 0. || not (Float.is_finite w.frequency_per_year)
      then invalid_arg "Risk.assess: invalid frequency")
    weighted_list;
  let exposures =
    List.map
      (fun weighted ->
        let report = Evaluate.run design weighted.scenario in
        let per_incident_penalty = report.Evaluate.penalties.Cost.total in
        {
          weighted;
          report;
          per_incident_penalty;
          expected_annual_penalty =
            Money.scale weighted.frequency_per_year per_incident_penalty;
        })
      weighted_list
  in
  let annual_outlays =
    (List.hd exposures).report.Evaluate.outlays.Cost.total
  in
  let expected_annual_penalty =
    Money.sum
      (List.map (fun (e : exposure) -> e.expected_annual_penalty) exposures)
  in
  {
    design_name = design.Design.name;
    exposures;
    annual_outlays;
    expected_annual_penalty;
    expected_annual_cost = Money.add annual_outlays expected_annual_penalty;
  }

let compare_designs designs weighted_list =
  List.map (fun d -> (d, assess d weighted_list)) designs
  |> List.sort (fun (_, a) (_, b) ->
         Money.compare a.expected_annual_cost b.expected_annual_cost)

type distribution = {
  horizon_years : float;
  samples : int;
  mean : Money.t;
  stddev : float;
  p50 : Money.t;
  p95 : Money.t;
  p99 : Money.t;
  max : Money.t;
}

let standard_normal rng =
  (* Box-Muller; [1 -. float] keeps the log argument in (0, 1]. *)
  let u1 = 1. -. Storage_workload.Prng.float rng in
  let u2 = Storage_workload.Prng.float rng in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

(* Knuth's multiplicative sampler is exact but O(lambda), and its
   [exp (-. lambda)] acceptance limit underflows to 0 for lambda >~ 745,
   after which the loop only terminates when the running product itself
   underflows — a garbage count. Use it only where it is cheap and exact;
   above that, a clamped normal approximation (error O(1/sqrt lambda)) is
   the standard regime split. *)
let poisson rng ~lambda =
  if lambda <= 0. then 0
  else if lambda < 30. then begin
    let limit = exp (-.lambda) in
    let rec draw k p =
      let p = p *. Storage_workload.Prng.float rng in
      if p > limit then draw (k + 1) p else k
    in
    draw 0 1.
  end
  else begin
    let x =
      Float.round (lambda +. (sqrt lambda *. standard_normal rng))
    in
    if x < 0. then 0 else int_of_float x
  end

let monte_carlo ?(samples = 10_000) design weighted_list ~horizon_years =
  if weighted_list = [] then invalid_arg "Risk.monte_carlo: no scenarios";
  if horizon_years <= 0. then invalid_arg "Risk.monte_carlo: non-positive horizon";
  if samples <= 0 then invalid_arg "Risk.monte_carlo: non-positive samples";
  List.iter
    (fun w ->
      if w.frequency_per_year < 0. || not (Float.is_finite w.frequency_per_year)
      then invalid_arg "Risk.monte_carlo: invalid frequency")
    weighted_list;
  (* Per-incident penalties are scenario-determined; evaluate once. *)
  let priced =
    List.map
      (fun w ->
        let report = Evaluate.run design w.scenario in
        (w.frequency_per_year *. horizon_years,
         Money.to_usd report.Evaluate.penalties.Cost.total))
      weighted_list
  in
  let outlays =
    horizon_years *. Money.to_usd (Cost.total design)
  in
  (* One generator per sample, seeded from a master stream. *)
  let master =
    Storage_workload.Prng.create ~seed:Storage_engine.default_seed
  in
  let sample_seeds =
    List.init samples (fun _ -> Storage_workload.Prng.next_int64 master)
  in
  let draw_sample seed =
    let rng = Storage_workload.Prng.create ~seed in
    List.fold_left
      (fun acc (lambda, penalty) ->
        acc +. (float_of_int (poisson rng ~lambda) *. penalty))
      outlays priced
  in
  let draws = Array.of_list (List.map draw_sample sample_seeds) in
  Array.sort Float.compare draws;
  let n = float_of_int samples in
  let mean = Array.fold_left ( +. ) 0. draws /. n in
  let variance =
    (* Unbiased sample estimator; a single sample has no spread. *)
    if samples < 2 then 0.
    else
      Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. draws
      /. (n -. 1.)
  in
  let percentile p =
    let idx = int_of_float (p *. (n -. 1.)) in
    Money.usd draws.(idx)
  in
  {
    horizon_years;
    samples;
    mean = Money.usd mean;
    stddev = sqrt variance;
    p50 = percentile 0.50;
    p95 = percentile 0.95;
    p99 = percentile 0.99;
    max = Money.usd draws.(samples - 1);
  }

let pp_distribution ppf d =
  Fmt.pf ppf
    "over %.0f yr (%d samples): mean %a, p50 %a, p95 %a, p99 %a, max %a"
    d.horizon_years d.samples Money.pp d.mean Money.pp d.p50 Money.pp d.p95
    Money.pp d.p99 Money.pp d.max

let pp ppf t =
  let pp_exposure ppf e =
    Fmt.pf ppf "  %-18s %6.3f/yr x %-9s = %s/yr"
      (Fmt.str "%a" Storage_device.Location.pp_scope
         e.weighted.scenario.Scenario.scope)
      e.weighted.frequency_per_year
      (Money.to_string e.per_incident_penalty)
      (Money.to_string e.expected_annual_penalty)
  in
  Fmt.pf ppf
    "@[<v>risk assessment for %s:@,%a@,  outlays %a + expected penalties %a \
     = %a per year@]"
    t.design_name
    (Fmt.list ~sep:Fmt.cut pp_exposure)
    t.exposures Money.pp t.annual_outlays Money.pp t.expected_annual_penalty
    Money.pp t.expected_annual_cost
