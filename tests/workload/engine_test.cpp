#include "workload/engine.hpp"

#include <gtest/gtest.h>

#include "workload/scenario.hpp"

namespace aria::workload {
namespace {

using namespace aria::literals;

/// A downsized iMixed for fast tests.
ScenarioConfig small_scenario(const std::string& base = "iMixed") {
  ScenarioConfig c = scenario_by_name(base);
  c.node_count = 40;
  c.job_count = 25;
  c.submission_start = 1_min;
  c.submission_interval = 20_s;
  c.horizon = 24_h;
  return c;
}

TEST(Engine, BuildConstructsGrid) {
  GridSimulation sim{small_scenario(), 1};
  sim.build();
  EXPECT_EQ(sim.node_count(), 40u);
  EXPECT_TRUE(sim.topology().connected());
  EXPECT_EQ(sim.idle_count(), 40u);  // nothing submitted yet
  ASSERT_NE(sim.node(NodeId{0}), nullptr);
  EXPECT_EQ(sim.node(NodeId{99}), nullptr);
}

TEST(Engine, AllJobsCompleteWithNoViolations) {
  GridSimulation sim{small_scenario(), 2};
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed(), 25u);
  EXPECT_EQ(r.tracker.unschedulable_count(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(Engine, DeterministicForSeed) {
  const RunResult a = run_scenario(small_scenario(), 7);
  const RunResult b = run_scenario(small_scenario(), 7);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_DOUBLE_EQ(a.mean_completion_minutes(), b.mean_completion_minutes());
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.tracker.total_reschedules(), b.tracker.total_reschedules());
}

TEST(Engine, DifferentSeedsDiffer) {
  const RunResult a = run_scenario(small_scenario(), 1);
  const RunResult b = run_scenario(small_scenario(), 2);
  // Statistically certain to differ in traffic volume.
  EXPECT_NE(a.traffic.total().messages, b.traffic.total().messages);
}

TEST(Engine, MetricsSeriesAreSampled) {
  ScenarioConfig c = small_scenario();
  static_assert(ScenarioConfig::kMetricsSamplePeriod == 60_s);
  const RunResult r = run_scenario(c, 3);
  // 24h at 1/min -> ~1441 samples.
  EXPECT_GT(r.idle_series.size(), 1400u);
  EXPECT_GT(r.node_count_series.size(), 1400u);
  // All nodes idle at the very start and the very end.
  EXPECT_DOUBLE_EQ(r.idle_series.points().front().value, 40.0);
  EXPECT_DOUBLE_EQ(r.idle_series.points().back().value, 40.0);
  // Some nodes busy in between.
  double min_idle = 1e9;
  for (const auto& p : r.idle_series.points()) min_idle = std::min(min_idle, p.value);
  EXPECT_LT(min_idle, 40.0);
}

TEST(Engine, CompletedSeriesReachesJobCount) {
  const RunResult r = run_scenario(small_scenario(), 4);
  const auto curve =
      r.completed_series(30_min, TimePoint::origin() + 24_h);
  EXPECT_DOUBLE_EQ(curve.points().back().value, 25.0);
  // Monotone non-decreasing.
  double prev = -1.0;
  for (const auto& p : curve.points()) {
    EXPECT_GE(p.value, prev);
    prev = p.value;
  }
}

TEST(Engine, ReschedulingTogglesWithScenario) {
  ScenarioConfig plain = small_scenario("Mixed");
  ScenarioConfig dynamic = small_scenario("iMixed");
  const RunResult rp = run_scenario(plain, 5);
  const RunResult rd = run_scenario(dynamic, 5);
  EXPECT_EQ(rp.tracker.total_reschedules(), 0u);
  EXPECT_EQ(rp.traffic.of("INFORM").messages, 0u);
  EXPECT_GT(rd.traffic.of("INFORM").messages, 0u);
}

TEST(Engine, DeadlineScenarioProducesDeadlineJobs) {
  ScenarioConfig c = small_scenario("iDeadline");
  c.node_count = 40;
  c.job_count = 25;
  const RunResult r = run_scenario(c, 6);
  EXPECT_EQ(r.deadline_jobs(), 25u);
  EXPECT_EQ(r.completed(), 25u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(Engine, ExpandingScenarioGrowsGrid) {
  ScenarioConfig c = small_scenario("iExpanding");
  c.node_count = 30;
  c.job_count = 20;
  c.expansion->start = 10_min;
  c.expansion->mean_interval = 2_min;
  c.expansion->target_node_count = 45;
  c.horizon = 24_h;
  GridSimulation sim{c, 8};
  const RunResult r = sim.run();
  EXPECT_EQ(r.final_node_count, 45u);
  EXPECT_TRUE(sim.topology().connected());
  EXPECT_EQ(r.completed(), 20u);
  // The node-count series records the growth.
  EXPECT_DOUBLE_EQ(r.node_count_series.points().front().value, 30.0);
  EXPECT_DOUBLE_EQ(r.node_count_series.points().back().value, 45.0);
}

TEST(Engine, OverlayStatsReported) {
  const RunResult r = run_scenario(small_scenario(), 9);
  EXPECT_GT(r.overlay_links, 0u);
  EXPECT_GT(r.overlay_avg_degree, 2.0);
  EXPECT_GT(r.overlay_avg_path_length, 1.0);
  EXPECT_LE(r.overlay_avg_path_length, 9.0);
}

TEST(Engine, WaitPlusExecEqualsCompletion) {
  const RunResult r = run_scenario(small_scenario(), 10);
  EXPECT_NEAR(r.mean_waiting_minutes() + r.mean_execution_minutes(),
              r.mean_completion_minutes(), 0.01);
}

TEST(Engine, VirtualOrganizationsConstrainPlacement) {
  ScenarioConfig c = small_scenario();
  c.node_count = 60;
  c.job_count = 60;
  c.vo_count = 3;
  c.vo_job_fraction = 0.5;
  GridSimulation sim{c, 41};
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed(), c.job_count);
  EXPECT_TRUE(r.tracker.violations().empty());

  std::size_t constrained = 0;
  for (const auto& [id, rec] : r.tracker.records()) {
    const auto& vo = rec.spec.requirements.virtual_org;
    if (vo.empty()) continue;
    ++constrained;
    // Every assignment in the chain respected the VO boundary.
    for (const auto& [node, at] : rec.assignments) {
      EXPECT_EQ(sim.node(node)->virtual_org(), vo)
          << id.to_string() << " placed outside its organization";
    }
  }
  // ~half the jobs should be constrained (binomial, generous bounds).
  EXPECT_GT(constrained, 15u);
  EXPECT_LT(constrained, 45u);
}

TEST(Engine, SingleVoBehavesLikeUntagged) {
  ScenarioConfig c = small_scenario();
  c.vo_count = 1;
  c.vo_job_fraction = 1.0;  // ignored when vo_count == 1
  const RunResult r = run_scenario(c, 42);
  EXPECT_EQ(r.completed(), c.job_count);
  for (const auto& [id, rec] : r.tracker.records()) {
    EXPECT_TRUE(rec.spec.requirements.virtual_org.empty());
  }
}

TEST(Engine, AlternativeOverlayFamiliesWork) {
  for (auto family : {ScenarioConfig::OverlayFamily::kRandomRegular,
                      ScenarioConfig::OverlayFamily::kSmallWorld}) {
    ScenarioConfig c = small_scenario();
    c.overlay_family = family;
    GridSimulation sim{c, 31};
    const RunResult r = sim.run();
    EXPECT_EQ(r.completed(), c.job_count)
        << "family " << static_cast<int>(family);
    EXPECT_TRUE(r.tracker.violations().empty());
    EXPECT_TRUE(sim.topology().connected());
  }
}

TEST(Engine, FailsafeEnabledFullRunIsQuiet) {
  // With failsafe on but no crashes, jobs complete normally, nothing is
  // falsely recovered, and watchers are all cleaned up.
  ScenarioConfig c = small_scenario();
  c.aria.failsafe = true;
  GridSimulation sim{c, 21};
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed(), c.job_count);
  EXPECT_EQ(r.tracker.total_recoveries(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
  for (proto::AriaNode* n : sim.all_nodes()) {
    EXPECT_EQ(n->watched_jobs(), 0u);
  }
  // NOTIFY traffic exists but stays a small fraction of the total.
  EXPECT_GT(r.traffic.of("NOTIFY").messages, 0u);
  EXPECT_LT(r.traffic.of("NOTIFY").bytes, r.traffic.total().bytes / 10);
}

TEST(Engine, ZeroJobScenarioIdlesToHorizon) {
  ScenarioConfig c = small_scenario();
  c.job_count = 0;
  c.horizon = 2_h;
  GridSimulation sim{c, 22};
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed(), 0u);
  EXPECT_EQ(r.traffic.total().messages, 0u);
  EXPECT_DOUBLE_EQ(r.idle_series.points().back().value, 40.0);
}

TEST(Engine, SingleNodeGridRunsEverythingLocally) {
  ScenarioConfig c = small_scenario();
  c.node_count = 1;
  c.job_count = 10;
  c.horizon = 48_h;
  GridSimulation sim{c, 23};
  const RunResult r = sim.run();
  EXPECT_EQ(r.completed(), 10u);
  EXPECT_TRUE(r.tracker.violations().empty());
  for (const auto& [id, rec] : r.tracker.records()) {
    EXPECT_EQ(rec.executor, NodeId{0});
  }
}

TEST(Engine, IdleGaugeMatchesScanThroughoutRun) {
  // idle_count() is an O(1) gauge updated on node state transitions; the
  // O(N) scan stays as the ground truth. Step the run in slices and verify
  // the two agree at every boundary, busy phase included.
  GridSimulation sim{small_scenario(), 12};
  sim.build();
  EXPECT_EQ(sim.idle_count(), sim.idle_count_scan());
  const TimePoint horizon = TimePoint::origin() + 24_h;
  for (TimePoint t = TimePoint::origin() + 10_min; t < horizon; t += 10_min) {
    sim.simulator().run_until(t);
    ASSERT_EQ(sim.idle_count(), sim.idle_count_scan())
        << "gauge desync at " << sim.simulator().now().to_string();
  }
  sim.simulator().run_until(horizon);
  EXPECT_EQ(sim.idle_count(), sim.idle_count_scan());
  EXPECT_EQ(sim.idle_count(), 40u);  // all work drained by the horizon
}

TEST(Engine, IdleGaugeMatchesScanWhileGridExpands) {
  // Node arrivals must register with the gauge too.
  ScenarioConfig c = small_scenario("iExpanding");
  c.node_count = 30;
  c.job_count = 20;
  c.expansion->start = 10_min;
  c.expansion->mean_interval = 2_min;
  c.expansion->target_node_count = 45;
  GridSimulation sim{c, 13};
  sim.build();
  const TimePoint horizon = TimePoint::origin() + 24_h;
  for (TimePoint t = TimePoint::origin() + 15_min; t < horizon; t += 15_min) {
    sim.simulator().run_until(t);
    ASSERT_EQ(sim.idle_count(), sim.idle_count_scan())
        << "gauge desync at " << sim.simulator().now().to_string();
  }
  sim.simulator().run_until(horizon);
  EXPECT_EQ(sim.node_count(), 45u);
  EXPECT_EQ(sim.idle_count(), sim.idle_count_scan());
}

TEST(Engine, TrafficAccountingConsistent) {
  const RunResult r = run_scenario(small_scenario(), 11);
  const auto req = r.traffic.of("REQUEST");
  EXPECT_EQ(req.bytes, req.messages * 1024);
  const auto acc = r.traffic.of("ACCEPT");
  EXPECT_EQ(acc.bytes, acc.messages * 128);
  EXPECT_GT(r.traffic_mib_total(), 0.0);
  EXPECT_NEAR(r.traffic_mib("REQUEST") + r.traffic_mib("ACCEPT") +
                  r.traffic_mib("INFORM") + r.traffic_mib("ASSIGN"),
              r.traffic_mib_total(), 1e-9);
}

}  // namespace
}  // namespace aria::workload
