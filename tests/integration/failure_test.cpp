// Failure injection: the protocol must degrade gracefully when nodes crash
// or messages are lost. The paper assumes a reliable substrate; these tests
// document the implementation's actual behaviour at the edges.
#include <gtest/gtest.h>

#include "tests/core/test_grid.hpp"

namespace aria::proto {
namespace {

using aria::test::TestGrid;
using namespace aria::literals;
using sched::SchedulerKind;

TEST(Failure, CrashedNodeDoesNotBid) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 5.0);  // would win, but crashed
  g.add_node(SchedulerKind::kFcfs, 2.0);
  g.connect_all();
  g.net().set_up(NodeId{1}, false);

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(10_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{2});
}

TEST(Failure, AssignToCrashedNodeLosesJobButNothingElse) {
  // A node that bids and then crashes before the ASSIGN arrives swallows
  // the job: the paper's failsafe (initiator notification) is future work,
  // so the job stays assigned-but-never-started. The rest of the grid must
  // keep operating and the tracker must stay consistent.
  TestGrid g;
  g.config.initiator_self_candidate = false;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& winner = g.add_node(SchedulerKind::kFcfs, 5.0);
  g.connect_all();

  auto doomed = g.make_job(1_h);
  const JobId doomed_id = doomed.id;
  g.node(0).submit(std::move(doomed));
  // Let the decision fire (accept_timeout = 1s), then crash the winner
  // while the ASSIGN is still in flight (10ms latency).
  g.run_for(1_s + 5_ms);
  g.net().set_up(winner.id(), false);
  g.run_for(1_min);

  // The ASSIGN was swallowed by the crash: the job is gone — never queued
  // anywhere (Assigned fires at the receiving node), never started.
  const JobRecord* rec = g.tracker.find(doomed_id);
  EXPECT_TRUE(rec->assignments.empty());
  EXPECT_FALSE(rec->started.has_value());
  EXPECT_GE(g.net().dropped_messages(), 1u);

  // The grid still schedules new work.
  g.net().set_up(winner.id(), true);
  auto next = g.make_job(30_min);
  const JobId next_id = next.id;
  g.node(0).submit(std::move(next));
  g.run_for(3_h);
  EXPECT_TRUE(g.tracker.find(next_id)->done());
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Failure, StoppedNodeLeavesOverlayCleanly) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& leaver = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  leaver.stop();
  g.topo.remove_node(leaver.id());
  EXPECT_FALSE(g.net().is_attached(leaver.id()));

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(2_h);
  ASSERT_TRUE(g.tracker.find(id)->done());
  EXPECT_NE(g.tracker.find(id)->executor, leaver.id());
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Failure, CrashDuringExecutionStallsOnlyThatJob) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto& executor = g.add_node(SchedulerKind::kFcfs, 5.0);
  g.connect_all();

  auto job = g.make_job(2_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(10_s);
  ASSERT_TRUE(executor.executing());

  // Hard-stop the executor: its completion event is cancelled.
  executor.stop();
  g.run_for(5_h);
  EXPECT_FALSE(g.tracker.find(id)->done());

  // Other nodes are unaffected.
  auto other = g.make_job(1_h);
  const JobId other_id = other.id;
  g.node(0).submit(std::move(other));
  g.run_for(2_h);
  EXPECT_TRUE(g.tracker.find(other_id)->done());
}

TEST(Failure, DownNodeDuringInformFloodIsSkipped) {
  TestGrid g;
  g.config.reschedule_threshold = 1_s;
  auto& busy = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);  // crashed alternative
  g.add_node(SchedulerKind::kFcfs, 1.0);  // healthy alternative
  g.connect_all();
  g.topo.remove_link(NodeId{0}, NodeId{1});
  g.topo.remove_link(NodeId{0}, NodeId{2});
  g.topo.remove_link(NodeId{1}, NodeId{2});

  auto j1 = g.make_job(2_h);
  auto j2 = g.make_job(2_h);
  const JobId queued_id = j2.id;
  busy.submit(std::move(j1));
  busy.submit(std::move(j2));
  g.run_for(5_s);
  ASSERT_EQ(busy.queue_length(), 1u);

  g.net().set_up(NodeId{1}, false);
  g.topo.add_link(NodeId{0}, NodeId{1});
  g.topo.add_link(NodeId{0}, NodeId{2});
  g.run_for(5_min);

  const JobRecord* rec = g.tracker.find(queued_id);
  ASSERT_EQ(rec->assignments.size(), 2u);
  EXPECT_EQ(rec->assignments[1].first, NodeId{2});  // healthy node won
  EXPECT_TRUE(g.tracker.violations().empty());
}

}  // namespace
}  // namespace aria::proto
