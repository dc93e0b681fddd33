#include "workload/aggregate.hpp"

#include <gtest/gtest.h>

namespace aria::workload {
namespace {

using namespace aria::literals;

ScenarioConfig tiny(const std::string& base = "iMixed") {
  ScenarioConfig c = scenario_by_name(base);
  c.node_count = 30;
  c.job_count = 15;
  c.submission_start = 1_min;
  c.submission_interval = 20_s;
  c.horizon = 16_h;
  return c;
}

/// `runs` seeds of `c` from `base_seed` on. Multi-run execution itself is
/// the sweep runner's (tests/sweep/runner_test.cpp).
std::vector<RunResult> repeated(const ScenarioConfig& c, std::size_t runs,
                                std::uint64_t base_seed) {
  std::vector<RunResult> results;
  for (std::size_t i = 0; i < runs; ++i) {
    results.push_back(run_scenario(c, base_seed + i));
  }
  return results;
}

TEST(Aggregate, SummaryStatistics) {
  const auto cfg = tiny();
  const auto runs = repeated(cfg, 3, 7);
  const ScenarioSummary s = summarize(cfg, runs);
  EXPECT_EQ(s.name, "iMixed");
  EXPECT_EQ(s.runs, 3u);
  EXPECT_EQ(s.completion_minutes.count(), 3u);
  EXPECT_GT(s.completion_minutes.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.completed_jobs.mean(), 15.0);
  EXPECT_GT(s.overlay_avg_path_length.mean(), 1.0);
}

TEST(Aggregate, SummaryAveragesSeries) {
  const auto cfg = tiny();
  const auto runs = repeated(cfg, 2, 11);
  const ScenarioSummary s = summarize(cfg, runs);
  ASSERT_FALSE(s.idle_series.empty());
  EXPECT_EQ(s.idle_series.label(), "iMixed");
  // First idle sample: all 30 nodes idle in every run.
  EXPECT_DOUBLE_EQ(s.idle_series.points().front().value, 30.0);
  ASSERT_FALSE(s.completed_curve.empty());
  EXPECT_DOUBLE_EQ(s.completed_curve.points().back().value, 15.0);
}

TEST(Aggregate, TrafficSumsAcrossRuns) {
  const auto cfg = tiny();
  const auto runs = repeated(cfg, 2, 13);
  const ScenarioSummary s = summarize(cfg, runs);
  const auto total0 = runs[0].traffic.total().bytes;
  const auto total1 = runs[1].traffic.total().bytes;
  EXPECT_EQ(s.traffic.total().bytes, total0 + total1);
  EXPECT_NEAR(s.traffic_mib_mean_total(),
              static_cast<double>(total0 + total1) / 2.0 / 1048576.0, 1e-9);
}

}  // namespace
}  // namespace aria::workload
