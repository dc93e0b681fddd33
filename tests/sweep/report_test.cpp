#include "sweep/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sweep/runner.hpp"

namespace aria::sweep {
namespace {

struct TinySweep {
  std::vector<RunSpec> specs;
  std::vector<workload::RunResult> results;
};

/// One small two-row sweep (FCFS x 2 seeds, iMixed x 1 seed), executed once
/// and shared by every test in this file.
const TinySweep& tiny_sweep() {
  static const TinySweep data = [] {
    workload::CliOptions fcfs;
    fcfs.scenario = "FCFS";
    fcfs.runs = 2;
    fcfs.seed = 5;
    fcfs.nodes = 40;
    fcfs.jobs = 25;
    fcfs.interval_s = 20.0;
    fcfs.horizon_min = 24.0 * 60.0;
    workload::CliOptions mixed = fcfs;
    mixed.scenario = "iMixed";
    mixed.runs = 1;
    mixed.seed = 11;

    SweepMatrix m;
    m.add({"", fcfs});
    m.add({"", mixed});

    TinySweep t;
    t.specs = m.expand();
    RunnerOptions options;
    options.workers = 1;
    t.results = run_all(t.specs, options);
    return t;
  }();
  return data;
}

std::size_t line_count(const std::string& s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(SweepReport, BuildGroupsRunsIntoMatrixRows) {
  const auto& [specs, results] = tiny_sweep();
  const SweepReport report = SweepReport::build(specs, results);

  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.rows[0].label, "FCFS");
  EXPECT_EQ(report.rows[0].runs, 2u);
  EXPECT_EQ(report.rows[0].base_seed, 5u);
  EXPECT_EQ(report.rows[0].nodes, 40u);
  EXPECT_EQ(report.rows[0].jobs, 25u);
  EXPECT_EQ(report.rows[1].label, "iMixed");
  EXPECT_EQ(report.rows[1].runs, 1u);
  EXPECT_EQ(report.rows[1].base_seed, 11u);

  ASSERT_EQ(report.runs.size(), 3u);
  EXPECT_EQ(report.total_runs, 3u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(report.runs[i].label, specs[i].label) << i;
    EXPECT_EQ(report.runs[i].seed, specs[i].seed) << i;
    EXPECT_EQ(report.runs[i].completed, results[i].completed()) << i;
    EXPECT_EQ(report.runs[i].traffic_bytes, results[i].traffic.total().bytes)
        << i;
  }
}

TEST(SweepReport, RowStatsMatchWelfordOverTheRowsRuns) {
  const auto& [specs, results] = tiny_sweep();
  const SweepReport report = SweepReport::build(specs, results);

  // Recompute the FCFS row's aggregates by hand, adding in the same matrix
  // order build() uses, so the floating-point results are bit-identical.
  RunningStats completed, completion, traffic_mib;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].label != "FCFS") continue;
    completed.add(static_cast<double>(results[i].completed()));
    completion.add(results[i].mean_completion_minutes());
    traffic_mib.add(static_cast<double>(results[i].traffic.total().bytes) /
                    (1024.0 * 1024.0));
    bytes += results[i].traffic.total().bytes;
  }
  const RowSummary& row = report.rows[0];
  EXPECT_EQ(row.completed.mean(), completed.mean());
  EXPECT_EQ(row.completed.stddev(), completed.stddev());
  EXPECT_EQ(row.completed.min(), completed.min());
  EXPECT_EQ(row.completed.max(), completed.max());
  EXPECT_EQ(row.completion_minutes.mean(), completion.mean());
  EXPECT_EQ(row.completion_minutes.stddev(), completion.stddev());
  EXPECT_EQ(row.traffic_mib.mean(), traffic_mib.mean());
  EXPECT_EQ(row.traffic.total().bytes, bytes);
}

TEST(SweepReport, TotalsSumEveryRun) {
  const auto& [specs, results] = tiny_sweep();
  const SweepReport report = SweepReport::build(specs, results);

  std::uint64_t messages = 0, bytes = 0, stranded = 0, violations = 0;
  for (const auto& r : results) {
    messages += r.traffic.total().messages;
    bytes += r.traffic.total().bytes;
    stranded += r.stranded();
    violations += r.tracker.violations().size();
  }
  EXPECT_EQ(report.traffic.total().messages, messages);
  EXPECT_EQ(report.traffic.total().bytes, bytes);
  EXPECT_EQ(report.total_stranded, stranded);
  EXPECT_EQ(report.total_violations, violations);
}

TEST(SweepReport, WritersAreByteStableAcrossCalls) {
  const auto& [specs, results] = tiny_sweep();
  const SweepReport report = SweepReport::build(specs, results);
  const SweepReport again = SweepReport::build(specs, results);

  const auto render = [](const SweepReport& r) {
    std::ostringstream json, summary, runs;
    r.write_json(json);
    r.write_summary_csv(summary);
    r.write_runs_csv(runs);
    return json.str() + '\0' + summary.str() + '\0' + runs.str();
  };
  const std::string first = render(report);
  EXPECT_EQ(first, render(report));  // same object, repeated render
  EXPECT_EQ(first, render(again));   // rebuilt from the same inputs
}

TEST(SweepReport, JsonCarriesSchemaAndSortedTrafficTypes) {
  const auto& [specs, results] = tiny_sweep();
  const SweepReport report = SweepReport::build(specs, results);
  std::ostringstream out;
  report.write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"schema\":\"aria-sweep-report-v2\""),
            std::string::npos);
  EXPECT_EQ(json.back(), '\n');

  // by_type() snapshots are name-sorted, so the merged ledger's key order
  // cannot depend on which run interned a message type first.
  const auto types = report.traffic.by_type();
  EXPECT_FALSE(types.empty());
  EXPECT_TRUE(std::is_sorted(
      types.begin(), types.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(SweepReport, CsvShapes) {
  const auto& [specs, results] = tiny_sweep();
  const SweepReport report = SweepReport::build(specs, results);

  std::ostringstream summary, runs;
  report.write_summary_csv(summary);
  report.write_runs_csv(runs);
  EXPECT_EQ(line_count(summary.str()), report.rows.size() + 1);
  EXPECT_EQ(line_count(runs.str()), report.total_runs + 1);
  EXPECT_EQ(summary.str().rfind("label,scenario,runs,", 0), 0u);
  EXPECT_EQ(runs.str().rfind("label,scenario,seed,", 0), 0u);
}

TEST(SweepReport, SpecResultCountMismatchThrows) {
  const auto& [specs, results] = tiny_sweep();
  try {
    SweepReport::build(specs, {});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("count mismatch"), std::string::npos);
  }
  (void)results;
}

TEST(SweepReport, OutOfOrderSpecsThrow) {
  auto specs = tiny_sweep().specs;
  auto results = tiny_sweep().results;
  // Completion order is not matrix order: merging must refuse rather than
  // silently mis-group.
  std::reverse(specs.begin(), specs.end());
  std::reverse(results.begin(), results.end());
  try {
    SweepReport::build(specs, results);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("expand() order"), std::string::npos);
  }
}

}  // namespace
}  // namespace aria::sweep
