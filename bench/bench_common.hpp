// Shared plumbing for bench_paper (the paper's evaluation and its
// ablations) and the tracing overhead bench.
//
// The benches rerun the paper's scenarios at full scale (500 nodes, 1000
// jobs, 41h40m of simulated time) and print the rows/series the paper
// reports. Environment knobs:
//   ARIA_BENCH_RUNS   repetitions per scenario (default 2; paper used 10)
//   ARIA_BENCH_SEED   base seed (default 1)
//   ARIA_BENCH_SCALE  workload scale factor in (0, 1] (default 1.0); values
//                     below 1 shrink nodes/jobs proportionally for smoke
//                     runs, at the full-scale load per node
// A malformed value exits 2 naming the variable.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "workload/aggregate.hpp"
#include "workload/cli.hpp"
#include "workload/scenario.hpp"

namespace aria::bench {

/// The variable's value, or nullptr when it is unset or empty.
inline const char* env(const char* name) {
  const char* v = std::getenv(name);
  return v == nullptr || *v == '\0' ? nullptr : v;
}

[[noreturn]] inline void bad_env(const char* name, const char* expected,
                                 const char* value) {
  std::fprintf(stderr, "error: %s must be %s (got '%s')\n", name, expected,
               value);
  std::exit(2);
}

inline std::size_t bench_runs() {
  const char* v = env("ARIA_BENCH_RUNS");
  std::size_t runs = 2;
  if (v != nullptr && (!workload::parse_uint(v, runs) || runs == 0)) {
    bad_env("ARIA_BENCH_RUNS", "a positive integer", v);
  }
  return runs;
}

inline std::uint64_t bench_seed() {
  const char* v = env("ARIA_BENCH_SEED");
  std::uint64_t seed = 1;
  if (v != nullptr && !workload::parse_uint(v, seed)) {
    bad_env("ARIA_BENCH_SEED", "a non-negative integer", v);
  }
  return seed;
}

inline double bench_scale() {
  const char* v = env("ARIA_BENCH_SCALE");
  double scale = 1.0;
  if (v != nullptr &&
      (!workload::parse_real(v, scale) || scale <= 0.0 || scale > 1.0)) {
    bad_env("ARIA_BENCH_SCALE", "a number in (0, 1]", v);
  }
  return scale;
}

/// Scenario by name, with the optional ARIA_BENCH_SCALE shrink applied.
/// Jobs arrive 1/scale times further apart, so each node sees the load it
/// sees at full scale over the same submission window.
inline workload::ScenarioConfig bench_scenario(const std::string& name) {
  workload::ScenarioConfig c = workload::scenario_by_name(name);
  const double scale = bench_scale();
  if (scale < 1.0) {
    c.node_count = std::max<std::size_t>(
        20, static_cast<std::size_t>(static_cast<double>(c.node_count) * scale));
    c.job_count = std::max<std::size_t>(
        20, static_cast<std::size_t>(static_cast<double>(c.job_count) * scale));
    c.submission_interval = Duration::seconds_f(
        c.submission_interval.to_seconds() / scale);
    if (c.expansion) {
      c.expansion->target_node_count = std::max(
          c.node_count + 10,
          static_cast<std::size_t>(
              static_cast<double>(c.expansion->target_node_count) * scale));
    }
  }
  return c;
}

inline void header(const std::string& id, const std::string& title) {
  std::cout << "\n================================================================\n"
            << id << " — " << title << "\n"
            << "scenarios at scale " << bench_scale() << ", "
            << bench_runs() << " run(s) each, base seed " << bench_seed()
            << "\n================================================================\n";
}

/// Verdicts so far: how many ran, and the text of each that missed.
inline std::size_t shape_checks = 0;
inline std::vector<std::string> shape_misses;

/// One "did the paper's shape reproduce?" verdict line.
inline void shape(const std::string& what, bool ok) {
  ++shape_checks;
  if (!ok) shape_misses.push_back(what);
  std::cout << (ok ? "  [shape OK]   " : "  [shape MISS] ") << what << "\n";
}

/// Prints the closing "shape checks: N/M OK" line, naming each MISS, and
/// returns the exit status: 1 if any verdict missed.
inline int finish() {
  std::cout << "\nshape checks: " << shape_checks - shape_misses.size() << "/"
            << shape_checks << " OK";
  for (const auto& what : shape_misses) std::cout << "; MISS: " << what;
  std::cout << "\n";
  return shape_misses.empty() ? 0 : 1;
}

}  // namespace aria::bench
