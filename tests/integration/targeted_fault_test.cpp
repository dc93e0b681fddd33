// Targeted fault injection (docs/faults.md "Targeted faults"): role-aimed
// churn against aggregator candidates, region-aligned partitions, and
// message-class fault bias. The contracts mirror the untargeted plane's:
// inert plans are draw-for-draw invisible (byte-identical runs), armed plans
// hit exactly who they aim at, and every chaos run replays exactly.
#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "workload/cli.hpp"
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

workload::ScenarioConfig hier_scenario() {
  workload::ScenarioConfig cfg = small_grid();
  cfg.aria.hierarchy.enabled = true;
  cfg.aria.hierarchy.region_count = 4;
  return cfg;
}

// ---------------------------------------------------------------------------
// churn_target: the stateless victim predicate
// ---------------------------------------------------------------------------

TEST(TargetedFault, ChurnTargetSelectsCandidateRanksOnly) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.region_count = 4;
  fc.targeted_churn = sim::FaultConfig::TargetedChurn{};
  fc.targeted_churn->ranks = 2;
  const sim::FaultPlane plane{fc};

  // Candidate k of region r is node r + k*4: ranks {0,1} are nodes 0..7.
  for (std::uint32_t n = 0; n < 8; ++n) {
    EXPECT_TRUE(plane.churn_target(NodeId{n})) << n;
  }
  for (std::uint32_t n = 8; n < 20; ++n) {
    EXPECT_FALSE(plane.churn_target(NodeId{n})) << n;
  }
}

TEST(TargetedFault, ChurnTargetHonoursTheRegionRestriction) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.region_count = 4;
  fc.targeted_churn = sim::FaultConfig::TargetedChurn{};
  fc.targeted_churn->ranks = 2;
  fc.targeted_churn->regions = {1, 3};
  const sim::FaultPlane plane{fc};

  EXPECT_TRUE(plane.churn_target(NodeId{1}));   // region 1 rank 0
  EXPECT_TRUE(plane.churn_target(NodeId{7}));   // region 3 rank 1
  EXPECT_FALSE(plane.churn_target(NodeId{0}));  // region 0: not listed
  EXPECT_FALSE(plane.churn_target(NodeId{2}));  // region 2: not listed
}

TEST(TargetedFault, ZeroRanksAndZeroRegionCountAreInert) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.region_count = 4;
  fc.targeted_churn = sim::FaultConfig::TargetedChurn{};
  fc.targeted_churn->ranks = 0;
  EXPECT_FALSE(sim::FaultPlane{fc}.churn_target(NodeId{0}));

  fc.targeted_churn->ranks = 2;
  fc.region_count = 0;  // hierarchy off: no candidates exist to target
  EXPECT_FALSE(sim::FaultPlane{fc}.churn_target(NodeId{0}));
}

// ---------------------------------------------------------------------------
// Bias: draw parity and per-class rates
// ---------------------------------------------------------------------------

TEST(TargetedFault, BiasedRatesMultiplyAndSaturate) {
  sim::FaultConfig fc;
  fc.enabled = true;
  fc.loss = 0.02;
  fc.duplicate = 0.01;
  fc.message_bias.push_back({"REGION_DIGEST", 25.0, 2.0});
  fc.message_bias.push_back({"REGION_LOAD", 100.0, 1.0});
  const sim::FaultPlane plane{fc};

  const auto digest =
      plane.biased_rates(proto::RegionDigestMsg::static_type());
  EXPECT_DOUBLE_EQ(digest.first, 0.5);    // 0.02 * 25
  EXPECT_DOUBLE_EQ(digest.second, 0.02);  // 0.01 * 2
  const auto load = plane.biased_rates(proto::RegionLoadMsg::static_type());
  EXPECT_DOUBLE_EQ(load.first, 1.0);      // 0.02 * 100 saturates at 1
  const auto request = plane.biased_rates(proto::RequestMsg::static_type());
  EXPECT_DOUBLE_EQ(request.first, 0.02);  // unbiased classes keep base rates
  EXPECT_DOUBLE_EQ(request.second, 0.01);
}

TEST(TargetedFault, UnityBiasIsDrawForDrawInvisible) {
  // A multiplier of 1 folds into the same probability before the same
  // single draw, so the whole run must be bitwise identical.
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xB1A5;
  cfg.faults.loss = 0.02;
  cfg.faults.duplicate = 0.01;
  const workload::RunResult base = workload::run_scenario(cfg, 41);

  cfg.faults.message_bias.push_back({"REGION_DIGEST", 1.0, 1.0});
  cfg.faults.message_bias.push_back({"REQUEST", 1.0, 1.0});
  const workload::RunResult r = workload::run_scenario(cfg, 41);

  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.completed(), base.completed());
  EXPECT_EQ(r.faults.lost, base.faults.lost);
  EXPECT_EQ(r.faults.duplicated, base.faults.duplicated);
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

TEST(TargetedFault, DigestStarvationHitsOnlyThatClass) {
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.aria.failsafe = true;     // background loss can eat ASSIGN/NOTIFY
  cfg.aria.assign_ack = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xB1A6;
  cfg.faults.loss = 0.02;
  const workload::RunResult base = workload::run_scenario(cfg, 43);

  cfg.faults.message_bias.push_back({"REGION_DIGEST", 25.0, 1.0});
  const workload::RunResult r = workload::run_scenario(cfg, 43);

  // 25x on a 2% base rate halves the digests that land (loss 0.5), yet
  // nothing strands — empty tables only mean discovery stays region-local.
  EXPECT_LT(r.digests_received, (base.digests_received * 6) / 10);
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

// ---------------------------------------------------------------------------
// Targeted churn end to end
// ---------------------------------------------------------------------------

TEST(TargetedFault, AggregatorChurnCrashesOnlyCandidatesAndStrandsNothing) {
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.aria.failsafe = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0x7A26;
  cfg.faults.targeted_churn = sim::FaultConfig::TargetedChurn{};
  cfg.faults.targeted_churn->ranks = 2;

  const workload::RunResult a = workload::run_scenario(cfg, 47);
  const workload::RunResult b = workload::run_scenario(cfg, 47);

  ASSERT_TRUE(a.faults_enabled);
  EXPECT_GT(a.faults.targeted_crashes, 0u);
  // Every crash came from the targeted plan (no untargeted churn armed).
  EXPECT_EQ(a.faults.crashes, a.faults.targeted_crashes);
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());

  // Same-seed chaos replays byte for byte.
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.faults.targeted_crashes, b.faults.targeted_crashes);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Region-aligned partitions
// ---------------------------------------------------------------------------

TEST(TargetedFault, RegionPartitionSeversThenHeals) {
  workload::ScenarioConfig cfg = hier_scenario();
  cfg.aria.failsafe = true;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0x9A27;
  cfg.faults.region_partitions.push_back(
      {/*region=*/1, /*start=*/60_min, /*duration=*/45_min});

  const workload::RunResult a = workload::run_scenario(cfg, 53);
  const workload::RunResult b = workload::run_scenario(cfg, 53);

  ASSERT_TRUE(a.faults_enabled);
  // The window actually blocked cross-boundary traffic...
  EXPECT_GT(a.faults.partition_drops, 0u);
  // ...and after the heal the failsafe pulled every job through.
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());

  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.faults.partition_drops, b.faults.partition_drops);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

TEST(TargetedFault, RegionPartitionIsInertWithoutARegionCount) {
  // region_count 0 = hierarchy off: the window exists but can never split
  // the stateless n % R map, so the run equals the unpartitioned one.
  workload::ScenarioConfig cfg = small_grid();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0x9A28;
  cfg.faults.loss = 0.02;
  const workload::RunResult base = workload::run_scenario(cfg, 59);

  cfg.faults.region_partitions.push_back({1, 60_min, 45_min});
  const workload::RunResult r = workload::run_scenario(cfg, 59);

  EXPECT_EQ(r.faults.partition_drops, 0u);
  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Inert CLI knobs against the recorded goldens
// ---------------------------------------------------------------------------

TEST(TargetedFault, ZeroedCliKnobsReproduceTheGolden) {
  // Every new flag on the command line, all of them zeroed (plus --audit,
  // which must be metric-inert): the run reproduces the exact golden
  // constants determinism_test.cpp pinned for this workload.
  workload::CliOptions o;
  ASSERT_FALSE(workload::parse_cli(
                   {"--target-churn", "0", "--region-partition", "1,60,0",
                    "--msg-fault-bias", "REGION_DIGEST:1,1", "--audit"},
                   o)
                   .has_value());
  EXPECT_FALSE(o.any_faults());
  workload::ScenarioConfig cfg = workload::resolve_scenario(o);
  cfg.node_count = 60;
  cfg.job_count = 80;
  cfg.submission_interval = cfg.submission_interval / 2;
  cfg.horizon = Duration::hours(30);
  const workload::RunResult r = workload::run_scenario(cfg, 42);

  // The same pins as Determinism.GoldenRunMatchesRecordedKernelBehaviour.
  EXPECT_EQ(r.completed(), 80u);
  EXPECT_EQ(r.events_fired, 91227u);
  EXPECT_EQ(r.traffic.total().messages, 67226u);
  EXPECT_EQ(r.traffic.total().bytes, 68025856u);
  EXPECT_EQ(r.tracker.total_reschedules(), 37u);
  EXPECT_EQ(r.audit_violations, 0u);
}

}  // namespace
}  // namespace aria::proto
