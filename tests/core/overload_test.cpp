// Overload plane protocol tests (docs/overload.md): bounded-queue shedding
// with shed-and-forward, admission REJECT with initiator re-discovery, the
// failsafe re-flood fallback for sheds nobody takes, and the cost-aware
// bid-suppression hysteresis.
#include <gtest/gtest.h>

#include "tests/core/test_grid.hpp"

namespace aria::proto {
namespace {

using aria::test::TestGrid;
using namespace aria::literals;
using sched::SchedulerKind;

// ---------------------------------------------------------------------------
// Shed-and-forward
// ---------------------------------------------------------------------------

TEST(Overload, ShedJobMovesToIdleNeighborViaInform) {
  TestGrid g;
  g.config.overload.enabled = true;
  g.config.overload.capacity_per_perf = 1.0;  // queue bound = 1
  auto& full = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& spare = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  // Fill node 0: one executing, one queued (at the bound).
  auto j1 = g.make_job(2_h);
  auto j2 = g.make_job(2_h);
  g.tracker.on_event(g.sim.now(), event::Submitted{j1, NodeId{0}});
  g.tracker.on_event(g.sim.now(), event::Submitted{j2, NodeId{0}});
  full.deliver_assignment(j1, NodeId{0});
  full.deliver_assignment(j2, NodeId{0});
  ASSERT_TRUE(full.executing());
  ASSERT_EQ(full.queue_length(), 1u);

  // A third delegation overflows the bound; FCFS sheds the newest arrival,
  // which the immediate INFORM burst hands to the idle neighbor.
  auto j3 = g.make_job(1_h);
  const JobId shed_id = j3.id;
  g.tracker.on_event(g.sim.now(), event::Submitted{j3, NodeId{0}});
  full.deliver_assignment(j3, NodeId{0});
  EXPECT_EQ(full.queue_length(), 1u);
  EXPECT_TRUE(full.shedding(shed_id));
  EXPECT_EQ(full.counters().jobs_shed, 1u);

  g.run_for(5_s);
  EXPECT_FALSE(full.shedding(shed_id));
  EXPECT_EQ(full.counters().sheds_rescheduled, 1u);
  EXPECT_EQ(full.counters().sheds_failsafe, 0u);
  EXPECT_TRUE(spare.holds(shed_id));

  const JobRecord* rec = g.tracker.find(shed_id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->sheds, 1u);
  ASSERT_EQ(rec->assignments.size(), 2u);
  EXPECT_EQ(rec->assignments[1].first, NodeId{1});
  EXPECT_EQ(g.tracker.total_sheds(), 1u);
  EXPECT_EQ(g.tracker.total_reschedules(), 1u);

  g.run_for(6_h);
  EXPECT_EQ(g.tracker.completed_count(), 3u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Overload, ShedWithNoTakerFallsBackToDiscovery) {
  TestGrid g;
  g.config.overload.enabled = true;
  g.config.overload.capacity_per_perf = 1.0;
  g.config.retry.max_attempts = 0;  // keep re-flooding until the queue drains
  auto& lonely = g.add_node(SchedulerKind::kFcfs, 1.0);  // no neighbors

  auto j1 = g.make_job(1_h);
  auto j2 = g.make_job(1_h);
  auto j3 = g.make_job(1_h);
  const JobId shed_id = j3.id;
  for (const auto& j : {j1, j2, j3}) {
    g.tracker.on_event(g.sim.now(), event::Submitted{j, NodeId{0}});
  }
  lonely.deliver_assignment(j1, NodeId{0});
  lonely.deliver_assignment(j2, NodeId{0});
  lonely.deliver_assignment(j3, NodeId{0});
  EXPECT_TRUE(lonely.shedding(shed_id));

  // Nobody answers the INFORM burst; after kShedOfferTimeout (10 s) the job
  // falls back to a discovery round (which also finds no taker while the
  // queue is full, so it backs off and retries).
  g.run_for(15_s);
  EXPECT_FALSE(lonely.shedding(shed_id));
  EXPECT_EQ(lonely.counters().sheds_failsafe, 1u);
  EXPECT_EQ(lonely.counters().sheds_rescheduled, 0u);
  EXPECT_GE(lonely.counters().bids_suppressed, 1u);

  // Once the queue drains below the bound the retry self-bid wins and the
  // shed job still completes — shed-and-forward never drops work.
  g.run_for(6_h);
  EXPECT_EQ(g.tracker.completed_count(), 3u);
  EXPECT_EQ(g.tracker.stranded_count(), 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

// ---------------------------------------------------------------------------
// Admission control: REJECT + re-discovery
// ---------------------------------------------------------------------------

TEST(Overload, SaturatedAssigneeRejectsAndInitiatorRediscovers) {
  TestGrid g;
  g.config.overload.enabled = true;
  g.config.overload.capacity_per_perf = 100.0;  // length bound out of play
  g.config.overload.admission_backlog = 3_h;
  g.config.initiator_self_candidate = false;
  g.config.dynamic_rescheduling = false;
  g.add_node(SchedulerKind::kFcfs, 1.0);                 // initiator
  auto& fast = g.add_node(SchedulerKind::kFcfs, 1.0);    // wins round 1
  auto& backup = g.add_node(SchedulerKind::kFcfs, 0.5);  // wins round 2
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));

  // Node 1 bids while idle. Before the initiator's accept window closes,
  // two directly-delivered 4h jobs push its backlog over the watermark.
  g.run_for(500_ms);
  auto big1 = g.make_job(4_h);
  auto big2 = g.make_job(4_h);
  g.tracker.on_event(g.sim.now(), event::Submitted{big1, NodeId{1}});
  g.tracker.on_event(g.sim.now(), event::Submitted{big2, NodeId{1}});
  fast.deliver_assignment(big1, NodeId{1});
  fast.deliver_assignment(big2, NodeId{1});
  ASSERT_GE(fast.backlog_duration(), 3_h);

  // The ASSIGN lands on a saturated node: explicit REJECT, immediate
  // re-flood by the delegator, and the job settles on node 2.
  g.run_for(10_s);
  EXPECT_EQ(fast.counters().assign_rejects, 1u);
  EXPECT_EQ(g.node(0).counters().reject_rediscoveries, 1u);
  EXPECT_FALSE(fast.holds(id));
  EXPECT_TRUE(backup.holds(id));

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->rejects, 1u);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{2});
  EXPECT_EQ(g.tracker.total_rejects(), 1u);

  g.run_for(8_h);
  EXPECT_EQ(g.tracker.completed_count(), 3u);
  EXPECT_EQ(g.tracker.rejected_incomplete_count(), 0u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Overload, RejectWithAssignAckCancelsRetransmissions) {
  // With acknowledged delegation the REJECT must also stop the delegator's
  // ASSIGN retransmission loop — otherwise the refused attempt would be
  // retried until the ACK budget runs out and a *second* discovery round
  // would race the first.
  TestGrid g;
  g.config.overload.enabled = true;
  g.config.overload.capacity_per_perf = 100.0;
  g.config.overload.admission_backlog = 3_h;
  g.config.assign_ack = true;
  g.config.initiator_self_candidate = false;
  g.config.dynamic_rescheduling = false;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& fast = g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& backup = g.add_node(SchedulerKind::kFcfs, 0.5);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(500_ms);
  auto big1 = g.make_job(4_h);
  auto big2 = g.make_job(4_h);
  g.tracker.on_event(g.sim.now(), event::Submitted{big1, NodeId{1}});
  g.tracker.on_event(g.sim.now(), event::Submitted{big2, NodeId{1}});
  fast.deliver_assignment(big1, NodeId{1});
  fast.deliver_assignment(big2, NodeId{1});

  g.run_for(10_s);
  EXPECT_EQ(fast.counters().assign_rejects, 1u);
  EXPECT_TRUE(backup.holds(id));
  EXPECT_EQ(g.node(0).counters().assign_retries, 0u);
  EXPECT_EQ(g.node(0).counters().assign_rediscoveries, 0u);

  g.run_for(10_h);
  EXPECT_EQ(g.tracker.completed_count(), 3u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

// ---------------------------------------------------------------------------
// Bid suppression hysteresis
// ---------------------------------------------------------------------------

TEST(Overload, SaturatedNodeStopsBiddingAndResumesAfterDraining) {
  TestGrid g;
  g.config.overload.enabled = true;
  g.config.overload.capacity_per_perf = 100.0;
  g.config.overload.admission_backlog = 2_h;  // stop at 1.5h, resume at 1h
  g.config.retry.max_attempts = 0;
  g.config.initiator_self_candidate = false;
  g.config.dynamic_rescheduling = false;
  g.add_node(SchedulerKind::kFcfs, 1.0);               // initiator
  auto& worker = g.add_node(SchedulerKind::kFcfs, 1.0);  // the only candidate
  g.connect_all();

  // 2h of running work: backlog over the 1.5h stop threshold.
  auto busywork = g.make_job(2_h);
  g.tracker.on_event(g.sim.now(), event::Submitted{busywork, NodeId{1}});
  worker.deliver_assignment(busywork, NodeId{1});

  auto job = g.make_job(30_min);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));

  // While saturated the worker withholds its bid; the initiator keeps
  // retrying on backoff.
  g.run_for(5_min);
  EXPECT_GE(worker.counters().bids_suppressed, 1u);
  EXPECT_TRUE(worker.bids_suppressed());
  EXPECT_FALSE(worker.holds(id));
  EXPECT_EQ(g.tracker.completed_count(), 0u);

  // Once the backlog drains below the resume threshold (1h left of the
  // running job) the next retry's bid goes through.
  g.run_for(2_h);
  EXPECT_FALSE(worker.bids_suppressed());
  EXPECT_EQ(g.tracker.completed_count(), 1u);
  g.run_for(2_h);
  EXPECT_EQ(g.tracker.completed_count(), 2u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Overload, PlaneOffLeavesQueuesUnbounded) {
  TestGrid g;  // overload.enabled stays false
  g.config.overload.capacity_per_perf = 1.0;  // inert while the plane is off
  auto& n = g.add_node(SchedulerKind::kFcfs, 1.0);
  for (int i = 0; i < 5; ++i) {
    auto j = g.make_job(1_h);
    g.tracker.on_event(g.sim.now(), event::Submitted{j, NodeId{0}});
    n.deliver_assignment(j, NodeId{0});
  }
  EXPECT_EQ(n.queue_length(), 4u);  // one executing, four queued, no sheds
  EXPECT_EQ(n.counters().jobs_shed, 0u);
  EXPECT_EQ(n.counters().assign_rejects, 0u);
  EXPECT_EQ(n.counters().bids_suppressed, 0u);
}

}  // namespace
}  // namespace aria::proto
