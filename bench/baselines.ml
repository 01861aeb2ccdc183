(* Committed perf-regression baselines for [bench/main.exe --check].

   These are FLOORS and CEILINGS, not expected values: they are set with
   generous headroom below/above the numbers measured on the development
   machine (the values the CHECK lines print, recorded in
   BENCH_check.json) so that ordinary machine-to-machine variance passes,
   while a structural regression — per-task dispatch overhead back on the
   hot path, a Marshal round-trip per cache key, O(grid) retention in the
   streaming search — fails loudly. The 2025 parallel regression this harness
   exists to catch was a 6x slowdown; anything of that class lands well
   past these margins.

   Re-baselining: run `dune exec bench/main.exe -- --check` (and
   `-- --check --smoke`) on a quiet machine, compare the measured values
   it prints against these thresholds, and update the constants here —
   keeping 2-4x headroom — in the same commit as the change that moved
   the numbers. See TESTING.md ("Perf-regression harness"). *)

type tier = {
  name : string;
  grid_scale : int;  (** [Candidate.scaled_space] scale for the gate grid *)
  jobs : int;  (** domain count for the parallel-speedup gate *)
  min_candidates_per_sec : float;
      (** serial streaming-search throughput floor *)
  min_parallel_speedup : float;
      (** wall-clock serial/parallel floor at [jobs] domains; the gate
          auto-skips when [Domain.recommended_domain_count () < jobs] *)
  max_peak_live_words : int;
      (** ceiling on peak [Gc.live_words] of the monitored serial
          streaming search, the O(window + frontier) memory contract *)
  min_serve_warm_speedup : float;
      (** floor on cold single-shot `ssdep evaluate` wall time over a
          running daemon's /evaluate p50 (no evaluation cache: each
          request parses and evaluates); the gate auto-skips when
          [SSDEP_BIN] is not set (no CLI binary to time) *)
  fleet_trials : int;  (** Monte Carlo trials for the fleet gate *)
  min_fleet_trials_per_sec : float;
      (** serial fleet Monte Carlo throughput floor on the baseline
          preset (5-year horizon) *)
  solver_budget_fraction : float;
      (** annealing budget for the solver-vs-grid gate, as a fraction of
          the tier grid's point count: the solver must land on the
          exhaustive grid optimum while evaluating at most this share of
          the grid *)
  solver_seed : int64;
      (** pinned annealing seed for the solver-vs-grid gate (the solver
          is a pure function of (seed, budget), so the gate is
          deterministic) *)
}

(* ~2k candidates: fast enough for every `dune runtest`, coarse floors
   because the suite runs concurrently with other tests. Peak live words
   measured ~25k at commit time. *)
let smoke =
  {
    name = "smoke";
    grid_scale = 2;
    jobs = 4;
    min_candidates_per_sec = 20_000.;
    min_parallel_speedup = 1.0;
    max_peak_live_words = 100_000;
    min_serve_warm_speedup = 1.5;
    fleet_trials = 200;
    min_fleet_trials_per_sec = 250.;
    solver_budget_fraction = 0.10;
    solver_seed = 0xB0B5L;
  }

(* The 131k-candidate grid of `bench/main.exe stream` (scale 8): the
   nightly gate. Dev-machine measurements at commit time: ~90k
   candidates/s serial, ~120k peak live words. *)
let full =
  {
    name = "full";
    grid_scale = 8;
    jobs = 4;
    min_candidates_per_sec = 50_000.;
    min_parallel_speedup = 2.0;
    max_peak_live_words = 480_000;
    min_serve_warm_speedup = 2.0;
    fleet_trials = 1000;
    min_fleet_trials_per_sec = 500.;
    solver_budget_fraction = 0.10;
    solver_seed = 0xB0B5L;
  }
