// Hierarchy plane end to end (docs/hierarchy.md). The contract mirrors the
// other planes': with the plane off the run is byte-for-byte the historical
// one no matter how the knobs are set; with it on, region-scoped floods plus
// digest-guided cross-region delegation still leave every job terminal —
// alone, with VO constraints forcing cross-region discovery, and composed
// with the churn/loss fault cocktail — while staying exactly replayable.
#include <gtest/gtest.h>

#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;

workload::ScenarioConfig small_grid() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 60;
  cfg.job_count = 80;
  return cfg;
}

// Mirror of what `aria_sim --hierarchy --regions 4` resolves to.
workload::ScenarioConfig hier_scenario() {
  workload::ScenarioConfig cfg = small_grid();
  cfg.aria.hierarchy.enabled = true;
  cfg.aria.hierarchy.region_count = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Flag-off contract
// ---------------------------------------------------------------------------

TEST(HierarchyIntegration, InertKnobsPreserveDeterminism) {
  // The settable hierarchy knob is set to an aggressive value, but the plane
  // stays disabled: the run must be indistinguishable from the stock
  // scenario — same events, same wire traffic, zero REGION_* state.
  const workload::RunResult base = workload::run_scenario(small_grid(), 17);

  workload::ScenarioConfig knobs = small_grid();
  knobs.aria.hierarchy.region_count = 16;
  const workload::RunResult r = workload::run_scenario(knobs, 17);

  EXPECT_FALSE(r.hierarchy_enabled);
  EXPECT_EQ(r.region_queries, 0u);
  EXPECT_EQ(r.region_floods, 0u);
  EXPECT_EQ(r.wide_floods, 0u);
  EXPECT_EQ(r.load_reports, 0u);
  EXPECT_EQ(r.digests_sent, 0u);

  EXPECT_EQ(r.completed(), base.completed());
  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Plane on: digest machinery runs, every job lands
// ---------------------------------------------------------------------------

TEST(HierarchyIntegration, RegionPlaneRunsAndStrandsNothing) {
  const workload::RunResult r = workload::run_scenario(hier_scenario(), 21);

  ASSERT_TRUE(r.hierarchy_enabled);
  EXPECT_EQ(r.region_count, 4u);
  // The periodic machinery must actually run...
  EXPECT_GT(r.load_reports, 0u);
  EXPECT_GT(r.digests_sent, 0u);
  EXPECT_GT(r.digests_received, 0u);
  // ...and region-scoped discovery must still leave every job terminal.
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
  EXPECT_GT(r.completed(), 0u);
}

TEST(HierarchyIntegration, VoConstraintsForceCrossRegionDelegation) {
  // Pin most jobs to one of several virtual organizations: a submitter's
  // own region then rarely satisfies its jobs, so rounds come back empty
  // or poor and must delegate through the aggregators. This exercises the
  // REGION_QUERY -> REGION_FWD -> remote flood path, not just the timers.
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.vo_count = 6;
  cfg.vo_job_fraction = 0.9;
  const workload::RunResult r = workload::run_scenario(cfg, 23);

  ASSERT_TRUE(r.hierarchy_enabled);
  EXPECT_GT(r.region_queries, 0u);
  EXPECT_GT(r.region_queries_served, 0u);
  EXPECT_GT(r.region_forwards, 0u);
  EXPECT_GT(r.region_floods, 0u);
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(HierarchyIntegration, RunIsReproducible) {
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.vo_count = 4;
  cfg.vo_job_fraction = 0.5;
  const workload::RunResult a = workload::run_scenario(cfg, 29);
  const workload::RunResult b = workload::run_scenario(cfg, 29);

  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.region_queries, b.region_queries);
  EXPECT_EQ(a.region_floods, b.region_floods);
  EXPECT_EQ(a.wide_floods, b.wide_floods);
  EXPECT_EQ(a.digests_sent, b.digests_sent);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Cocktail: hierarchy + churn + loss (aggregators crash too)
// ---------------------------------------------------------------------------

TEST(HierarchyIntegration, CocktailWithChurnAndLossStrandsNothing) {
  // Churn crashes nodes without regard for their role, so aggregator
  // candidates die mid-run. Failover is attempt-rotation plus the
  // region-local retry loop — no job may strand on a dead super-peer.
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xBEEF;
  cfg.faults.loss = 0.02;
  cfg.faults.churn = sim::FaultConfig::Churn{};
  cfg.aria.failsafe = true;

  const workload::RunResult a = workload::run_scenario(cfg, 13);
  const workload::RunResult b = workload::run_scenario(cfg, 13);

  ASSERT_TRUE(a.hierarchy_enabled);
  ASSERT_TRUE(a.faults_enabled);
  EXPECT_GT(a.faults.crashes, 0u);
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());

  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.region_queries, b.region_queries);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

}  // namespace
}  // namespace aria::proto
