// Failsafe extension (paper §III-D's crash-recovery hook) and advance
// reservations (paper future work).
#include <gtest/gtest.h>

#include "tests/core/test_grid.hpp"

namespace aria::proto {
namespace {

using aria::test::TestGrid;
using namespace aria::literals;
using sched::SchedulerKind;

class FailsafeTest : public ::testing::Test {
 protected:
  FailsafeTest() {
    g.config.failsafe = true;
    g.config.failsafe_factor = 1.0;
    g.config.failsafe_margin = 10_min;
    g.config.inform_period = 60_s;
  }
  TestGrid g;
};

TEST_F(FailsafeTest, HappyPathLeavesNothingWatched) {
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 2.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  initiator.submit(std::move(job));
  g.run_for(2_h);

  EXPECT_EQ(g.tracker.completed_count(), 1u);
  EXPECT_EQ(initiator.watched_jobs(), 0u);  // completion notify cleaned up
  EXPECT_EQ(initiator.counters().recoveries, 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST_F(FailsafeTest, NotifyTrafficFlowsWhenRemote) {
  grid::NodeProfile sparc = TestGrid::universal_profile();
  sparc.arch = grid::Architecture::kSparc;
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  initiator.submit(std::move(job));
  g.run_for(2_h);

  EXPECT_EQ(g.tracker.completed_count(), 1u);
  // At least queued + started + completed notifications crossed the wire.
  EXPECT_GE(g.net().traffic().of(kNotifyType).messages, 3u);
}

TEST_F(FailsafeTest, RecoversJobLostToSwallowedAssign) {
  // The winner crashes while the ASSIGN is in flight: without failsafe the
  // job is gone (see failure_test.cpp); with it, the watchdog re-floods.
  g.config.initiator_self_candidate = false;
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& winner = g.add_node(SchedulerKind::kFcfs, 5.0);
  auto& backup = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  initiator.submit(std::move(job));
  g.run_for(1_s + 5_ms);            // decision fired, ASSIGN in flight
  g.net().set_up(winner.id(), false);  // crash
  // Watchdog = inform_period * 1.0 + 10m margin + timeout -> fires ~11m in.
  g.run_for(4_h);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_GE(rec->recoveries, 1u);
  ASSERT_TRUE(rec->done());
  EXPECT_EQ(rec->executor, backup.id());
  EXPECT_EQ(initiator.watched_jobs(), 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST_F(FailsafeTest, RecoversJobWhoseExecutorDied) {
  // The executor process dies mid-run (stop() cancels its completion).
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& executor = g.add_node(SchedulerKind::kFcfs, 5.0);
  auto& backup = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  initiator.submit(std::move(job));
  g.run_for(10_s);
  ASSERT_TRUE(executor.executing());
  executor.stop();
  g.topo.remove_node(executor.id());
  g.run_for(6_h);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_TRUE(rec->done());
  // Re-ran on any surviving node (initiator may win its own recovery).
  EXPECT_NE(rec->executor, executor.id());
  EXPECT_TRUE(rec->executor == backup.id() || rec->executor == initiator.id());
  EXPECT_GE(rec->recoveries, 1u);
  EXPECT_EQ(rec->executions, 2u);  // at-least-once: ran on two nodes
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST_F(FailsafeTest, HeartbeatsPreventFalseRecoveryOfLongQueuedJobs) {
  // One slow node holds several jobs; the later ones wait far longer than
  // the watchdog deadline. Heartbeats must keep resetting the timer.
  auto& node = g.add_node(SchedulerKind::kFcfs, 1.0);
  for (int i = 0; i < 4; ++i) {
    auto job = g.make_job(1_h);  // watchdog ~11m, total queue ~4h
    node.submit(std::move(job));
  }
  g.run_for(6_h);

  EXPECT_EQ(g.tracker.completed_count(), 4u);
  EXPECT_EQ(node.counters().recoveries, 0u);
  EXPECT_EQ(g.tracker.total_recoveries(), 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST_F(FailsafeTest, WatchdogSurvivesReschedules) {
  auto& busy = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.topo.remove_link(NodeId{0}, NodeId{1});
  auto j1 = g.make_job(2_h);
  auto j2 = g.make_job(2_h);
  const JobId id = j2.id;
  busy.submit(std::move(j1));
  busy.submit(std::move(j2));
  g.run_for(5_s);
  g.topo.add_link(NodeId{0}, NodeId{1});
  g.run_for(8_h);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_TRUE(rec->done());
  EXPECT_GE(rec->reschedule_count(), 1u);  // it moved
  EXPECT_EQ(rec->recoveries, 0u);          // but was never falsely recovered
  EXPECT_EQ(busy.watched_jobs(), 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST_F(FailsafeTest, GivesUpAfterMaxRecoveries) {
  // The only executor keeps swallowing the job (crashed network-wise but
  // still bidding is impossible — so make every recovery land nowhere by
  // crashing the sole remote candidate permanently).
  g.config.failsafe_max_recoveries = 2;
  g.config.initiator_self_candidate = false;
  g.config.retry.max_attempts = 1;
  grid::NodeProfile sparc = TestGrid::universal_profile();
  sparc.arch = grid::Architecture::kSparc;
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  auto& winner = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  initiator.submit(std::move(job));
  g.run_for(1_s + 5_ms);
  g.net().set_up(winner.id(), false);  // ASSIGN swallowed; ACCEPTs keep
                                       // working? No: node is fully down.
  g.run_for(48_h);

  // Watchdog fired, recovered at most max_recoveries times, then stopped.
  const JobRecord* rec = g.tracker.find(id);
  EXPECT_LE(rec->recoveries, 2u);
  EXPECT_EQ(initiator.watched_jobs(), 0u);  // gave up cleanly
  EXPECT_FALSE(rec->done());
}

TEST_F(FailsafeTest, DisabledMeansNoWatchingAndNoNotifyTraffic) {
  g.config.failsafe = false;
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 2.0);
  g.connect_all();
  auto job = g.make_job(1_h);
  initiator.submit(std::move(job));
  g.run_for(2_h);
  EXPECT_EQ(initiator.watched_jobs(), 0u);
  EXPECT_EQ(g.net().traffic().of(kNotifyType).messages, 0u);
}

// ---------------------------------------------------------------------------
// Advance reservations
// ---------------------------------------------------------------------------

TEST(Reservation, ExecutionWaitsForEarliestStart) {
  TestGrid g;
  auto& node = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto job = g.make_job(1_h);
  job.earliest_start = g.sim.now() + 2_h;
  const JobId id = job.id;
  node.submit(std::move(job));

  g.run_for(1_h);
  EXPECT_FALSE(node.executing());  // reservation not open yet
  EXPECT_EQ(node.queue_length(), 1u);

  g.run_for(4_h);
  const JobRecord* rec = g.tracker.find(id);
  ASSERT_TRUE(rec->done());
  EXPECT_EQ(*rec->started, TimePoint::origin() + 2_h);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Reservation, OpenReservationRunsImmediately) {
  TestGrid g;
  auto& node = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto job = g.make_job(1_h);
  job.earliest_start = g.sim.now();  // already open
  node.submit(std::move(job));
  g.run_for(10_s);
  EXPECT_TRUE(node.executing());
}

TEST(Reservation, HeadReservationBlocksQueue) {
  // No backfilling: a closed reservation at the head gates later jobs too.
  TestGrid g;
  auto& node = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto reserved = g.make_job(1_h);
  reserved.earliest_start = g.sim.now() + 3_h;
  const JobId reserved_id = reserved.id;
  node.submit(std::move(reserved));
  g.run_for(10_s);
  auto plain = g.make_job(1_h);
  const JobId plain_id = plain.id;
  node.submit(std::move(plain));

  g.run_for(10_h);
  const JobRecord* r1 = g.tracker.find(reserved_id);
  const JobRecord* r2 = g.tracker.find(plain_id);
  ASSERT_TRUE(r1->done() && r2->done());
  EXPECT_EQ(*r1->started, TimePoint::origin() + 3_h);
  EXPECT_GT(*r2->started, *r1->started);  // FCFS order preserved
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Reservation, SjfShortJobSlipsAheadBeforeReservationReachesHead) {
  // Under SJF the reservation only blocks once it IS the head; a shorter
  // job enqueued later sorts before it and runs first.
  TestGrid g;
  auto& node = g.add_node(SchedulerKind::kSjf, 1.0);
  auto reserved = g.make_job(2_h);
  reserved.earliest_start = g.sim.now() + 5_h;
  node.submit(std::move(reserved));
  g.run_for(10_s);
  auto quick = g.make_job(1_h);
  const JobId quick_id = quick.id;
  node.submit(std::move(quick));
  g.run_for(3_h);
  EXPECT_TRUE(g.tracker.find(quick_id)->done());
}

TEST_F(FailsafeTest, CompletionReceiptsExpireAfterTheTtl) {
  // The executor's durable receipt answers recovery floods with a replay;
  // the TTL sweep (riding the inform tick) bounds how long it is held.
  static_assert(AriaConfig::kCompletionReceiptTtl == 12_h);
  auto& initiator = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& worker = g.add_node(SchedulerKind::kFcfs, 2.0);
  g.connect_all();

  initiator.submit(g.make_job(1_h));
  g.run_for(45_min);  // done: the receipt is live
  EXPECT_EQ(g.tracker.completed_count(), 1u);
  EXPECT_EQ(initiator.completion_receipts() + worker.completion_receipts(),
            1u);

  g.run_for(11_h);  // still inside the 12 h TTL
  EXPECT_EQ(initiator.completion_receipts() + worker.completion_receipts(),
            1u);

  g.run_for(2_h);  // now past the TTL: the periodic sweep dropped it
  EXPECT_EQ(initiator.completion_receipts() + worker.completion_receipts(),
            0u);
}

TEST(Reservation, RescheduledJobKeepsItsReservation) {
  TestGrid g;
  g.config.reschedule_threshold = 1_s;
  g.config.inform_period = 60_s;
  auto& busy = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.topo.remove_link(NodeId{0}, NodeId{1});

  auto filler = g.make_job(2_h);
  busy.submit(std::move(filler));
  auto reserved = g.make_job(1_h);
  reserved.earliest_start = g.sim.now() + 30_min;
  const JobId id = reserved.id;
  busy.submit(std::move(reserved));
  g.run_for(5_s);
  g.topo.add_link(NodeId{0}, NodeId{1});
  g.run_for(8_h);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_TRUE(rec->done());
  EXPECT_GE(*rec->started, TimePoint::origin() + 30_min);
  EXPECT_TRUE(g.tracker.violations().empty());
}

}  // namespace
}  // namespace aria::proto
