// Chaos-hardening of the hierarchy plane (docs/hierarchy.md "Failure
// modes"). Pins the three hardenings end to end: cold aggregator restarts
// (solicit fresh reports, hand queries to the next rank until warmed),
// early wide-flood escalation when a region's whole candidate list has gone
// silent, and the composed chaos cocktail auditing clean with zero stranded
// jobs — all exactly replayable per (seed, fault seed).
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/fault.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;

workload::ScenarioConfig hier_scenario() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 60;
  cfg.job_count = 80;
  cfg.aria.hierarchy.enabled = true;
  cfg.aria.hierarchy.region_count = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// Fault-free byte-identity of the chaos knobs
// ---------------------------------------------------------------------------

TEST(HierarchyChaos, WarmupKnobIsInertWithoutRestarts) {
  // The cold-start machinery arms only on the restart path, and the silence
  // escalation only while the fault plane runs: a fault-free hierarchy run
  // has no restarts and no fault plane, so its chaos telemetry stays zero.
  const workload::RunResult r = workload::run_scenario(hier_scenario(), 61);

  ASSERT_TRUE(r.hierarchy_enabled);
  EXPECT_FALSE(r.faults_enabled);
  EXPECT_EQ(r.region_pulls, 0u);
  EXPECT_EQ(r.region_handoffs, 0u);
  EXPECT_EQ(r.early_wide_escalations, 0u);
  // Some job did flood again after kEscalateSilentRounds empty rounds, so
  // only the absent fault plane kept that flood from escalating.
  std::size_t most_retries = 0;
  for (const auto& [id, rec] : r.tracker.records()) {
    most_retries = std::max(most_retries, rec.retries);
  }
  EXPECT_GT(most_retries, HierarchyParams::kEscalateSilentRounds);
}

// ---------------------------------------------------------------------------
// Cold restarts: solicit + handoff
// ---------------------------------------------------------------------------

TEST(HierarchyChaos, RestartedAggregatorsComeBackColdAndSolicit) {
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.aria.failsafe = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xC01D;
  cfg.faults.targeted_churn = sim::FaultConfig::TargetedChurn{};
  cfg.faults.targeted_churn->ranks = 2;

  const workload::RunResult a = workload::run_scenario(cfg, 67);
  const workload::RunResult b = workload::run_scenario(cfg, 67);

  EXPECT_GT(a.faults.restarts, 0u);
  // Every aggregator restart floods a REGION_PULL solicitation.
  EXPECT_GT(a.region_pulls, 0u);
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());

  EXPECT_EQ(a.region_pulls, b.region_pulls);
  EXPECT_EQ(a.region_handoffs, b.region_handoffs);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Candidate exhaustion: primary AND every standby dead
// ---------------------------------------------------------------------------

TEST(HierarchyChaos, DeadCandidateListStillCompletesViaWideFloods) {
  // Aim the targeted plan at the *entire* candidate list of one region
  // (ranks == agg_standby) with outages far longer than the uptimes, so
  // region 1 spends most of the run with no live aggregator at all. Jobs
  // homed there must still complete: the every-4th-attempt wide flood and
  // the silence escalation bypass the dead interior, and the failsafe
  // re-floods anything lost in the gaps.
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.aria.failsafe = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xDEAD;
  cfg.faults.targeted_churn = sim::FaultConfig::TargetedChurn{};
  cfg.faults.targeted_churn->ranks =
      static_cast<std::uint32_t>(HierarchyParams::kAggStandby);
  cfg.faults.targeted_churn->regions = {1};
  cfg.faults.targeted_churn->mean_uptime = 10_min;
  cfg.faults.targeted_churn->mean_downtime = 3_h;

  const workload::RunResult a = workload::run_scenario(cfg, 71);
  const workload::RunResult b = workload::run_scenario(cfg, 71);

  ASSERT_TRUE(a.faults_enabled);
  EXPECT_GT(a.faults.targeted_crashes, 0u);
  // Discovery did have to route around the dead interior, and the fault
  // plane armed the silence escalation without being asked...
  EXPECT_GT(a.wide_floods, 0u);
  EXPECT_GT(a.early_wide_escalations, 0u);
  // ...and no job stranded on it.
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());

  EXPECT_EQ(a.wide_floods, b.wide_floods);
  EXPECT_EQ(a.early_wide_escalations, b.early_wide_escalations);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// The full cocktail, audited
// ---------------------------------------------------------------------------

TEST(HierarchyChaos, CocktailAuditsCleanAndStrandsNothing) {
  // Everything at once — aggregator-targeted churn, a region-aligned
  // partition, digest starvation via class bias, background loss — with the
  // online auditor watching every invariant. This is the small-scale twin
  // of the chaos-hier sweep preset's acceptance bar.
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.aria.failsafe = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xC0C7;
  cfg.faults.loss = 0.02;
  cfg.faults.targeted_churn = sim::FaultConfig::TargetedChurn{};
  cfg.faults.targeted_churn->ranks = 2;
  cfg.faults.region_partitions.push_back({2, 120_min, 60_min});
  cfg.faults.message_bias.push_back({"REGION_DIGEST", 25.0, 1.0});
  cfg.faults.message_bias.push_back({"REGION_LOAD", 25.0, 1.0});
  cfg.audit.enabled = true;

  const workload::RunResult a = workload::run_scenario(cfg, 73);
  const workload::RunResult b = workload::run_scenario(cfg, 73);

  ASSERT_TRUE(a.audit_enabled);
  EXPECT_GT(a.faults.targeted_crashes, 0u);
  EXPECT_GT(a.faults.partition_drops, 0u);
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());
  EXPECT_EQ(a.audit_violations, 0u)
      << (a.violations.empty()
              ? std::string{}
              : a.violations[0].kind + ": " + a.violations[0].detail);

  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.audit_violations, b.audit_violations);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

}  // namespace
}  // namespace aria::proto
