// Self-healing overlay plane end to end: PING/PONG liveness probing,
// dead-neighbor eviction, contact-gossip repair and restarted-node rejoin
// against the fault plane. These are the guarantees docs/overlay.md
// promises: the live-node subgraph reconverges to connected under churn,
// lossy links do not unravel the overlay, and with zero faults the plane
// takes no corrective action and stays perfectly replayable.
#include <gtest/gtest.h>

#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;

workload::ScenarioConfig healing_scenario() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 25;
  cfg.job_count = 60;
  return cfg;
}

// Mirror of what `aria_sim --churn --healing` resolves to: churn implies
// the failsafe (crashed queues) and acknowledged delegation (lossy wire).
workload::ScenarioConfig churn_scenario(std::uint64_t seed) {
  workload::ScenarioConfig cfg = healing_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = seed ^ 0xFA017D15ULL;
  cfg.faults.churn = sim::FaultConfig::Churn{};
  cfg.aria.failsafe = true;
  cfg.aria.assign_ack = true;
  cfg.aria.healing.enabled = true;
  return cfg;
}

// ---------------------------------------------------------------------------
// Churn: eviction, repair, rejoin, reconvergence
// ---------------------------------------------------------------------------

TEST(Healing, ChurnEvictsRepairsAndReconverges) {
  const workload::RunResult r = workload::run_scenario(churn_scenario(3), 3);

  ASSERT_TRUE(r.healing_enabled);
  EXPECT_GT(r.faults.crashes, 0u);
  // Dead neighbors were detected and cut out of the flood target sets...
  EXPECT_GT(r.neighbor_evictions, 0u);
  // ...and the survivors rebuilt their degree from gossiped contacts.
  EXPECT_GT(r.repair_links, 0u);
  // Restarted nodes re-entered through their remembered contacts.
  EXPECT_GT(r.rejoin_requests, 0u);
  EXPECT_GT(r.probe_rounds, 0u);
  // The headline guarantee: the live-node subgraph reconverged, and any
  // disconnection window was bounded by a handful of probe periods.
  EXPECT_TRUE(r.live_subgraph_connected_at_end);
  EXPECT_LE(r.max_heal_minutes(), 60.0);
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(Healing, StrictlyReducesReschedulesUnderChurn) {
  // Same workload, same fault schedule; the only difference is the healing
  // plane. Since executors replay completion receipts the failsafe alone
  // already pulls every recoverable job through, so completion ends at
  // parity — healing's measurable win is wasted work: eviction keeps
  // floods and assignments away from dead neighbors, so strictly fewer
  // jobs bounce through a reschedule.
  workload::ScenarioConfig off = churn_scenario(3);
  off.aria.healing.enabled = false;
  const workload::RunResult a = workload::run_scenario(off, 3);
  const workload::RunResult b = workload::run_scenario(churn_scenario(3), 3);

  EXPECT_FALSE(a.healing_enabled);
  EXPECT_TRUE(b.healing_enabled);
  EXPECT_GE(b.completed(), a.completed());
  EXPECT_LT(b.tracker.total_reschedules(), a.tracker.total_reschedules());
  EXPECT_EQ(b.stranded(), 0u);
  EXPECT_TRUE(b.tracker.violations().empty());
}

TEST(Healing, ChurnRunIsReproducible) {
  const workload::RunResult a = workload::run_scenario(churn_scenario(7), 7);
  const workload::RunResult b = workload::run_scenario(churn_scenario(7), 7);
  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.neighbor_evictions, b.neighbor_evictions);
  EXPECT_EQ(a.repair_links, b.repair_links);
  EXPECT_EQ(a.rejoin_requests, b.rejoin_requests);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Loss: suspicion without unraveling
// ---------------------------------------------------------------------------

TEST(Healing, LossyWireCausesOnlyFalseSuspicions) {
  // Nobody ever crashes; every suspicion the prober raises is false and a
  // later PONG must clear it. The grace period (suspected peers still get
  // traffic) plus the two-miss threshold keep the overlay intact.
  workload::ScenarioConfig cfg = healing_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xCAFE;
  cfg.faults.loss = 0.05;
  cfg.aria.assign_ack = true;
  cfg.aria.healing.enabled = true;

  const workload::RunResult r = workload::run_scenario(cfg, 11);

  EXPECT_EQ(r.faults.crashes, 0u);
  EXPECT_GT(r.false_suspicions, 0u);
  // All nodes stayed alive the whole run, so the live subgraph is the whole
  // overlay — it must never have been sampled disconnected.
  EXPECT_EQ(r.live_disconnected_samples, 0u);
  EXPECT_TRUE(r.live_subgraph_connected_at_end);
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

// ---------------------------------------------------------------------------
// Quiet plane: healing enabled, zero faults
// ---------------------------------------------------------------------------

TEST(Healing, QuietPlaneTakesNoActionAndReplaysExactly) {
  // With no faults every probe is answered, so the plane must be pure
  // observation: no suspicion ever matures, no link is evicted, and the run
  // is bit-reproducible (probe traffic included). The one sanctioned move
  // is the degree-floor top-up: bootstrap nodes that start below the floor
  // pull in a few repair links on the first probe tick — a standing
  // invariant, not a fault response — and then the plane goes quiet.
  workload::ScenarioConfig cfg = healing_scenario();
  cfg.aria.healing.enabled = true;

  const workload::RunResult a = workload::run_scenario(cfg, 5);
  const workload::RunResult b = workload::run_scenario(cfg, 5);

  ASSERT_TRUE(a.healing_enabled);
  EXPECT_EQ(a.neighbor_evictions, 0u);
  EXPECT_EQ(a.false_suspicions, 0u);
  EXPECT_LT(a.repair_links, cfg.node_count);  // floor top-up only, one-time
  EXPECT_EQ(a.repair_links, b.repair_links);
  EXPECT_EQ(a.rejoin_requests, 0u);
  EXPECT_GT(a.probe_rounds, 0u);
  EXPECT_GT(a.probe_traffic_mib(), 0.0);
  EXPECT_EQ(a.live_disconnected_samples, 0u);
  EXPECT_TRUE(a.live_subgraph_connected_at_end);
  EXPECT_EQ(a.stranded(), 0u);

  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

TEST(Healing, DisabledPlaneSendsNoProbeTraffic) {
  // The flag-off contract behind the golden determinism constants: a run
  // without --healing carries zero healing state and zero probe bytes.
  const workload::RunResult r =
      workload::run_scenario(healing_scenario(), 5);
  EXPECT_FALSE(r.healing_enabled);
  EXPECT_EQ(r.probe_rounds, 0u);
  EXPECT_EQ(r.probe_traffic_mib(), 0.0);
  EXPECT_EQ(r.neighbor_evictions, 0u);
  EXPECT_EQ(r.rejoin_requests, 0u);
}

}  // namespace
}  // namespace aria::proto
