// Tracing overhead micro-bench: the full-scale Table-II iMixed run (500
// nodes, 1000 jobs, 41h40m simulated) with tracing off vs on, wall-clock
// compared. The acceptance bar in docs/tracing.md is < 2% slowdown with the
// default sampling (every 16th message) — tracing is a struct copy into a
// pre-sized ring, off the allocator and off the RNG.
//
// Methodology: one uncounted warm-up pair, then ARIA_BENCH_RUNS interleaved
// off/on pairs at the same seed; the reported overhead compares the *minima*
// (the min is the standard noise-robust wall-clock estimator — cold caches
// and scheduler jitter only ever make a run slower).
//
// Environment knobs (bench_common.hpp): ARIA_BENCH_RUNS (default 2),
// ARIA_BENCH_SEED, ARIA_BENCH_SCALE.
#include <algorithm>

#include "bench_common.hpp"

#include "workload/engine.hpp"

int main() {
  using namespace aria;

  const std::size_t runs = bench::bench_runs();
  const std::uint64_t seed = bench::bench_seed();
  const workload::ScenarioConfig base = bench::bench_scenario("iMixed");
  workload::ScenarioConfig traced = base;
  traced.trace.enabled = true;  // default sampling: every 16th message

  std::printf("tracing overhead, scenario iMixed, %zu nodes, %zu jobs, "
              "%zu measured pair(s) after 1 warm-up, base seed %llu\n",
              base.node_count, base.job_count, runs,
              static_cast<unsigned long long>(seed));

  (void)workload::run_scenario(base, seed);  // warm-up (allocator, caches)
  (void)workload::run_scenario(traced, seed);

  std::printf("%6s  %10s  %10s  %9s  %12s\n", "pair", "off [s]", "on [s]",
              "delta", "records");
  double off_min = 1e300, on_min = 1e300;
  bool unperturbed = true;
  for (std::size_t i = 0; i < runs; ++i) {
    const workload::RunResult off = workload::run_scenario(base, seed);
    const workload::RunResult on = workload::run_scenario(traced, seed);
    unperturbed = unperturbed && off.events_fired == on.events_fired &&
                  off.completed() == on.completed();
    off_min = std::min(off_min, off.wall_seconds);
    on_min = std::min(on_min, on.wall_seconds);
    std::printf("%6zu  %10.3f  %10.3f  %+8.2f%%  %12llu\n", i,
                off.wall_seconds, on.wall_seconds,
                100.0 * (on.wall_seconds - off.wall_seconds) /
                    off.wall_seconds,
                static_cast<unsigned long long>(on.trace->total_recorded()));
  }

  const double overhead = 100.0 * (on_min - off_min) / off_min;
  std::printf("\nbest-of-%zu: off %.3f s, on %.3f s, overhead %+.2f%% "
              "(acceptance bar: < 2%%)\n",
              runs, off_min, on_min, overhead);
  bench::shape("tracing leaves the run unperturbed (same events, same jobs)",
               unperturbed);
  return bench::finish();
}
