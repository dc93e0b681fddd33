// Fault recovery: the hardened protocol (failsafe watchdogs + acknowledged
// delegation) against the fault plane. These are the guarantees
// docs/faults.md promises: crashed assignees lose their queues but not the
// jobs, lost ASSIGNs are retransmitted or re-discovered, and a run with the
// plane attached-but-quiet is indistinguishable from a fault-free one.
#include <gtest/gtest.h>

#include "tests/core/test_grid.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::proto {
namespace {

using aria::test::TestGrid;
using namespace aria::literals;
using sched::SchedulerKind;

// ---------------------------------------------------------------------------
// Crash recovery via failsafe
// ---------------------------------------------------------------------------

TEST(FaultRecovery, CrashedAssigneeQueuedJobCompletesViaFailsafe) {
  TestGrid g;
  g.config.failsafe = true;
  g.config.failsafe_factor = 1.5;
  g.config.failsafe_margin = 10_min;
  // Keep the initiator out of the bidding and jobs where they land, so the
  // recovery deterministically executes on node 2 (otherwise the initiator
  // self-quotes on the re-flood, or INFORM rescheduling later steals the
  // recovered job from node 2's queue).
  g.config.initiator_self_candidate = false;
  g.config.dynamic_rescheduling = false;
  g.add_node(SchedulerKind::kFcfs, 1.0);               // initiator
  auto& winner = g.add_node(SchedulerKind::kFcfs, 5.0);  // fast, then dead
  g.add_node(SchedulerKind::kFcfs, 1.0);               // recovery target
  g.connect_all();

  // Two jobs so the second sits *queued* behind the first when the crash
  // wipes the scheduler.
  auto first = g.make_job(2_h);
  auto queued = g.make_job(1_h);
  const JobId queued_id = queued.id;
  g.node(0).submit(std::move(first));
  g.run_for(10_s);
  g.node(0).submit(std::move(queued));
  g.run_for(10_s);
  ASSERT_TRUE(winner.executing());
  ASSERT_EQ(winner.queue_length(), 1u);

  winner.crash();
  EXPECT_TRUE(winner.crashed());
  EXPECT_FALSE(winner.idle());
  EXPECT_EQ(winner.queue_length(), 0u);

  // The initiator's watchdog fires and re-floods; node 2 picks the job up.
  g.run_for(12_h);
  const JobRecord* rec = g.tracker.find(queued_id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->done());
  EXPECT_GE(rec->recoveries, 1u);
  EXPECT_EQ(rec->executor, NodeId{2});
  EXPECT_GE(g.node(0).counters().recoveries, 1u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(FaultRecovery, RestartedNodeRejoinsAndExecutesAgain) {
  TestGrid g;
  g.config.failsafe = true;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& churner = g.add_node(SchedulerKind::kFcfs, 5.0);
  g.connect_all();

  churner.crash();
  g.run_for(1_min);
  churner.restart();
  EXPECT_FALSE(churner.crashed());

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(4_h);
  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->done());
  EXPECT_EQ(rec->executor, churner.id());  // fast node wins again post-restart
  EXPECT_TRUE(g.tracker.violations().empty());
}

// ---------------------------------------------------------------------------
// Acknowledged delegation
// ---------------------------------------------------------------------------

TEST(FaultRecovery, LostAssignIsRetransmittedAndAcked) {
  TestGrid g;
  g.config.initiator_self_candidate = false;
  g.config.assign_ack = true;
  g.config.assign_ack_timeout = 5_s;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& winner = g.add_node(SchedulerKind::kFcfs, 5.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  // Let the decision fire (accept_timeout = 1s), then swallow the in-flight
  // ASSIGN by taking the winner down for one retry period.
  g.run_for(1_s + 5_ms);
  g.net().set_up(winner.id(), false);
  g.run_for(4_s);
  g.net().set_up(winner.id(), true);

  g.run_for(4_h);
  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->done());
  EXPECT_EQ(rec->executor, winner.id());
  EXPECT_GE(g.node(0).counters().assign_retries, 1u);
  EXPECT_GE(winner.counters().assign_acks_sent, 1u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(FaultRecovery, AssignRetriesExhaustedFallBackToRediscovery) {
  TestGrid g;
  g.config.initiator_self_candidate = false;
  g.config.assign_ack = true;
  g.config.assign_ack_timeout = 5_s;
  g.config.assign_max_retries = 2;
  g.config.failsafe = true;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& winner = g.add_node(SchedulerKind::kFcfs, 5.0);  // dies for good
  g.add_node(SchedulerKind::kFcfs, 2.0);                 // fallback
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(1_s + 5_ms);
  winner.crash();  // original ASSIGN and every retransmission vanish

  g.run_for(6_h);
  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->done());
  EXPECT_EQ(rec->executor, NodeId{2});
  EXPECT_EQ(g.node(0).counters().assign_retries, 2u);
  EXPECT_GE(g.node(0).counters().assign_rediscoveries, 1u);
  EXPECT_GE(rec->recoveries, 1u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(FaultRecovery, DuplicatedAssignIsIdempotent) {
  // A network-duplicated ASSIGN must not queue the job twice. Drive the
  // duplication through the real fault plane at probability 1.
  TestGrid g;
  g.config.initiator_self_candidate = false;
  g.config.assign_ack = true;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 5.0);  // wins the bid, gets the ASSIGN
  g.connect_all();

  sim::FaultConfig fc;
  fc.enabled = true;
  fc.seed = 21;
  fc.duplicate = 1.0;
  sim::FaultPlane plane{fc};
  g.net().set_fault_plane(&plane);

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(4_h);
  g.net().set_fault_plane(nullptr);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->done());
  EXPECT_EQ(rec->assignments.size(), 1u);
  EXPECT_GT(g.net().counters().duplicated_messages, 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

// ---------------------------------------------------------------------------
// End to end: GridSimulation under loss + churn
// ---------------------------------------------------------------------------

workload::ScenarioConfig small_scenario() {
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 25;
  cfg.job_count = 40;
  cfg.submission_start = 5_min;
  cfg.submission_interval = 30_s;
  cfg.horizon = 24_h;
  return cfg;
}

TEST(FaultRecovery, LossAndChurnLeaveNoJobStranded) {
  workload::ScenarioConfig cfg = small_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xFA;
  cfg.faults.loss = 0.05;
  cfg.faults.churn = sim::FaultConfig::Churn{
      .mean_uptime = 3_h, .mean_downtime = 15_min, .start = 30_min};
  cfg.aria.failsafe = true;
  cfg.aria.assign_ack = true;

  const workload::RunResult r = workload::run_scenario(cfg, 5);

  EXPECT_TRUE(r.faults_enabled);
  EXPECT_GT(r.faults.lost, 0u);
  EXPECT_GT(r.faults.crashes, 0u);
  EXPECT_GE(r.faults.crashes, r.faults.restarts);
  // Counter reconciliation: wire tallies == plane schedule.
  EXPECT_EQ(r.traffic.total_faulted(), r.faults.injected_drops());
  EXPECT_EQ(r.duplicated_messages, r.faults.duplicated);
  // The headline guarantee: every submitted job reached a terminal state.
  EXPECT_EQ(r.stranded(), 0u);
  EXPECT_TRUE(r.tracker.violations().empty());
}

TEST(FaultRecovery, SameFaultSeedReproducesTheRun) {
  workload::ScenarioConfig cfg = small_scenario();
  cfg.faults.enabled = true;
  cfg.faults.seed = 0xD0;
  cfg.faults.loss = 0.03;
  cfg.aria.assign_ack = true;

  const workload::RunResult a = workload::run_scenario(cfg, 9);
  const workload::RunResult b = workload::run_scenario(cfg, 9);
  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.faults.lost, b.faults.lost);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
}

TEST(FaultRecovery, QuietFaultPlaneIsByteIdenticalToFaultFree) {
  // Regression for the determinism contract: enabling the plane with every
  // rate at zero must not move a single event or byte.
  workload::ScenarioConfig off = small_scenario();
  workload::ScenarioConfig quiet = small_scenario();
  quiet.faults.enabled = true;
  quiet.faults.seed = 0xBEEF;  // seed irrelevant: no draws ever happen

  const workload::RunResult a = workload::run_scenario(off, 3);
  const workload::RunResult b = workload::run_scenario(quiet, 3);

  EXPECT_FALSE(a.faults_enabled);
  EXPECT_TRUE(b.faults_enabled);
  EXPECT_EQ(b.faults.lost, 0u);
  EXPECT_EQ(a.completed(), b.completed());
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.tracker.total_reschedules(), b.tracker.total_reschedules());
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
  EXPECT_EQ(a.tracker.submitted_count(), b.tracker.submitted_count());
}

}  // namespace
}  // namespace aria::proto
