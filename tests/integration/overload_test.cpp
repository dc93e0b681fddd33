// Overload plane end to end: request storms against bounded queues and
// admission control. These are the guarantees docs/overload.md promises:
// with the plane off the run is byte-for-byte the historical one no matter
// how the knobs are set, and with it on a >=5x storm degrades to shedding
// and rescheduling — never to stranded jobs — while staying exactly
// replayable, alone and composed with the fault plane.
#include <gtest/gtest.h>

#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;

workload::ScenarioConfig small_grid() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 20;
  cfg.job_count = 60;
  return cfg;
}

// Mirror of what `aria_sim --overload --storm` resolves to: overload
// implies acknowledged delegation (REJECT rides the ASSIGN exchange).
workload::ScenarioConfig storm_scenario() {
  workload::ScenarioConfig cfg = small_grid();
  cfg.aria.overload.enabled = true;
  cfg.aria.overload.capacity_per_perf = 2.0;
  cfg.aria.overload.admission_backlog = 2_h;
  cfg.aria.assign_ack = true;
  cfg.storm = workload::StormParams{/*start=*/Duration::zero(),
                                    /*duration=*/Duration::minutes(10),
                                    /*intensity=*/6.0};
  return cfg;
}

// ---------------------------------------------------------------------------
// Flag-off contract
// ---------------------------------------------------------------------------

TEST(OverloadIntegration, InertKnobsPreserveDeterminism) {
  // Every settable overload knob is set to an aggressive value, but the
  // plane stays disabled: the run must be indistinguishable from the stock
  // scenario — same events, same wire traffic, same completions, zero
  // overload state.
  const workload::RunResult base = workload::run_scenario(small_grid(), 17);

  workload::ScenarioConfig knobs = small_grid();
  knobs.aria.overload.capacity_per_perf = 1.0;
  knobs.aria.overload.admission_backlog = 1_min;
  const workload::RunResult r = workload::run_scenario(knobs, 17);

  EXPECT_FALSE(r.overload_enabled);
  EXPECT_EQ(r.jobs_shed, 0u);
  EXPECT_EQ(r.assign_rejects, 0u);
  EXPECT_EQ(r.bids_suppressed, 0u);
  EXPECT_EQ(r.queue_depth_series.size(), 0u);

  EXPECT_EQ(r.completed(), base.completed());
  EXPECT_EQ(r.events_fired, base.events_fired);
  EXPECT_EQ(r.traffic.total().messages, base.traffic.total().messages);
  EXPECT_EQ(r.traffic.total().bytes, base.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Storm acceptance: overload activity, zero stranded, determinism
// ---------------------------------------------------------------------------

TEST(OverloadIntegration, StormShedsAndRejectsButStrandsNothing) {
  const workload::RunResult r = workload::run_scenario(storm_scenario(), 21);

  ASSERT_TRUE(r.overload_enabled);
  // The 6x burst against a 2-deep bound must actually trip the plane...
  EXPECT_GT(r.bids_suppressed, 0u);
  EXPECT_GT(r.peak_queue_depth, 0u);
  EXPECT_GT(r.queue_depth_series.size(), 0u);
  // ...and every shed or rejected job must land somewhere terminal: the
  // overload guarantee is "degrade to rescheduling, never to stranding".
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_EQ(r.completed() + r.tracker.unschedulable_count() +
                r.tracker.abandoned_count(),
            storm_scenario().job_count);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(OverloadIntegration, StormRunIsReproducible) {
  const workload::RunResult a = workload::run_scenario(storm_scenario(), 9);
  const workload::RunResult b = workload::run_scenario(storm_scenario(), 9);

  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.jobs_shed, b.jobs_shed);
  EXPECT_EQ(a.sheds_rescheduled, b.sheds_rescheduled);
  EXPECT_EQ(a.sheds_failsafe, b.sheds_failsafe);
  EXPECT_EQ(a.assign_rejects, b.assign_rejects);
  EXPECT_EQ(a.reject_rediscoveries, b.reject_rediscoveries);
  EXPECT_EQ(a.bids_suppressed, b.bids_suppressed);
  EXPECT_EQ(a.peak_queue_depth, b.peak_queue_depth);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

// ---------------------------------------------------------------------------
// Cocktail: overload + churn + loss
// ---------------------------------------------------------------------------

TEST(OverloadIntegration, CocktailWithChurnAndLossReplaysExactly) {
  workload::ScenarioConfig cfg = storm_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xBEEF;
  cfg.faults.loss = 0.05;
  cfg.faults.churn = sim::FaultConfig::Churn{};
  cfg.aria.failsafe = true;

  const workload::RunResult a = workload::run_scenario(cfg, 13);
  const workload::RunResult b = workload::run_scenario(cfg, 13);

  ASSERT_TRUE(a.overload_enabled);
  ASSERT_TRUE(a.faults_enabled);
  EXPECT_GT(a.faults.crashes, 0u);
  // Churn + loss + storm together still leave every job terminal.
  EXPECT_EQ(a.stranded(), 0u);
  EXPECT_TRUE(a.tracker.violations().empty());

  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.jobs_shed, b.jobs_shed);
  EXPECT_EQ(a.assign_rejects, b.assign_rejects);
  EXPECT_EQ(a.reject_rediscoveries, b.reject_rediscoveries);
  EXPECT_EQ(a.bids_suppressed, b.bids_suppressed);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

}  // namespace
}  // namespace aria::proto
