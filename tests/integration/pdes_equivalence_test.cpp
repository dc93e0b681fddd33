// Sharded-vs-sequential byte-identity (docs/pdes.md "Determinism
// contract"). The sequential kernel is the oracle: for every scenario the
// executor supports, running the same seed under --shards N must reproduce
// the sequential run exactly — same job lifecycles to the microsecond, same
// per-type traffic, same fault counters, same series. These tests drive
// verify_sharded_equivalence, which also diffs the canonical send journals
// so a regression names the first divergent event instead of a mismatched
// aggregate.
#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/pdes/journal.hpp"
#include "workload/cli.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::workload {
namespace {

/// The golden-run shape (determinism_test.cpp), small enough that a
/// sequential + sharded pair stays test-suite cheap.
ScenarioConfig small_scenario() {
  ScenarioConfig c = scenario_by_name("iMixed");
  c.node_count = 60;
  c.job_count = 80;
  c.submission_interval = c.submission_interval / 2;
  c.horizon = Duration::hours(30);
  return c;
}

ScenarioConfig hierarchy_scenario() {
  CliOptions o;
  o.scenario = "iMixed";
  o.nodes = 120;
  o.jobs = 100;
  o.horizon_min = 20.0 * 60.0;
  o.hierarchy = true;
  return resolve_scenario(o);
}

ScenarioConfig churn_loss_scenario() {
  CliOptions o;
  o.scenario = "iMixed";
  o.nodes = 120;
  o.jobs = 100;
  o.horizon_min = 20.0 * 60.0;
  o.churn = true;
  o.loss = 0.02;
  return resolve_scenario(o);
}

TEST(PdesEquivalence, DefaultScenarioIsByteIdenticalAcrossShardCounts) {
  for (const std::size_t shards : {2u, 4u}) {
    const auto eq = verify_sharded_equivalence(small_scenario(), shards, 42);
    EXPECT_TRUE(eq.identical) << "shards=" << shards << ": " << eq.detail;
  }
}

TEST(PdesEquivalence, HierarchyScenarioIsByteIdentical) {
  const auto eq = verify_sharded_equivalence(hierarchy_scenario(), 4, 7);
  EXPECT_TRUE(eq.identical) << eq.detail;
}

TEST(PdesEquivalence, ChurnAndLossCocktailIsByteIdentical) {
  const auto eq = verify_sharded_equivalence(churn_loss_scenario(), 4, 7);
  EXPECT_TRUE(eq.identical) << eq.detail;
}

TEST(PdesEquivalence, SingleShardIsThePlainSequentialPath) {
  // --shards 1 must not merely be equivalent — it takes the exact
  // sequential code path, so two runs fingerprint identically and report
  // no executor telemetry.
  const ScenarioConfig cfg = small_scenario();
  GridSimulation a{cfg, 42};
  GridSimulation b{cfg, 42};
  const RunResult ra = a.run();
  const RunResult rb = b.run();
  EXPECT_EQ(run_fingerprint(ra), run_fingerprint(rb));
  EXPECT_EQ(ra.shards, 1u);
  EXPECT_EQ(ra.pdes_windows, 0u);
  EXPECT_EQ(ra.pdes_shard_events, 0u);
}

TEST(PdesEquivalence, ShardedTelemetryIsReported) {
  ScenarioConfig cfg = small_scenario();
  cfg.shards = 2;
  GridSimulation sim{cfg, 42};
  const RunResult r = sim.run();
  EXPECT_EQ(r.shards, 2u);
  EXPECT_GT(r.pdes_windows, 0u);
  // One-shard windows run inline; pdes_windows still counts every window.
  EXPECT_GT(r.pdes_inline_windows, 0u);
  EXPECT_LE(r.pdes_inline_windows, r.pdes_windows);
  EXPECT_GT(r.pdes_shard_events, 0u);
  EXPECT_GT(r.pdes_messages_forwarded, 0u);
  // The executor is the only driver of the engine simulator in sharded
  // mode, so its per-phase tally plus the shard totals is exactly
  // events_fired.
  EXPECT_EQ(r.pdes_engine_events + r.pdes_shard_events, r.events_fired);
  EXPECT_EQ(r.pdes_channel_overflows, 0u)
      << "default ring capacity should absorb a 60-node run";
}

TEST(PdesEquivalence, GatedPlanesThrowAtBuildTime) {
  // docs/pdes.md "Gated planes": the executor refuses configurations it
  // cannot host rather than silently diverging.
  {
    ScenarioConfig cfg = small_scenario();
    cfg.shards = 2;
    cfg.aria.healing.enabled = true;
    GridSimulation sim{cfg, 1};
    EXPECT_THROW(sim.build(), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = small_scenario();
    cfg.shards = 2;
    cfg.audit.enabled = true;
    GridSimulation sim{cfg, 1};
    EXPECT_THROW(sim.build(), std::invalid_argument);
  }
  {
    ScenarioConfig cfg = small_scenario();
    cfg.shards = 0;
    GridSimulation sim{cfg, 1};
    EXPECT_THROW(sim.build(), std::invalid_argument);
  }
  EXPECT_THROW(verify_sharded_equivalence(small_scenario(), 1, 1),
               std::invalid_argument);
}

TEST(PdesEquivalence, DivergenceWouldNameTheFirstEvent) {
  // Sanity-check the reporting path end to end: a deliberately mismatched
  // comparison (different seeds) must come back non-identical with a
  // description that names a concrete event or fingerprint line.
  ScenarioConfig cfg = small_scenario();
  cfg.pdes_journal = true;
  GridSimulation seq{cfg, 42};
  const RunResult rs = seq.run();
  const auto js = seq.journal_entries();
  GridSimulation other{cfg, 43};
  other.run();
  const auto jo = other.journal_entries();
  const auto d = sim::pdes::first_divergence(js, jo);
  ASSERT_TRUE(d.has_value());
  EXPECT_FALSE(d->description.empty());
  EXPECT_NE(rs.events_fired, 0u);
}

}  // namespace
}  // namespace aria::workload
