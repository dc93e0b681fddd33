// Submission-phase protocol tests: REQUEST flooding, ACCEPT collection,
// ASSIGN delegation, retries, matching rules (paper §III-B/C).
#include <gtest/gtest.h>

#include "tests/core/test_grid.hpp"

namespace aria::proto {
namespace {

using aria::test::TestGrid;
using namespace aria::literals;
using sched::SchedulerKind;

TEST(Protocol, JobGoesToCheapestNode) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 2.0);  // fastest -> lowest ETTC
  g.add_node(SchedulerKind::kFcfs, 1.5);
  g.connect_all();

  auto job = g.make_job(2_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{1});
  EXPECT_TRUE(g.node(1).executing());
}

TEST(Protocol, CompletesWithExactArt) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 2.0);
  g.connect_all();

  auto job = g.make_job(2_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(2_h);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  ASSERT_TRUE(rec->done());
  // perf 2.0 and exact error model: ART = 1h.
  EXPECT_EQ(rec->art, 1_h);
  EXPECT_EQ(rec->execution_time(), 1_h);
  EXPECT_EQ(rec->executor, NodeId{1});
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Protocol, InitiatorCanWinItsOwnJob) {
  TestGrid g;
  auto& fast = g.add_node(SchedulerKind::kFcfs, 2.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  fast.submit(std::move(job));
  g.run_for(5_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{0});
  // Self-assignment must not generate ASSIGN traffic.
  EXPECT_EQ(g.net().traffic().of(kAssignType).messages, 0u);
}

TEST(Protocol, SelfCandidacyCanBeDisabled) {
  TestGrid g;
  g.config.initiator_self_candidate = false;
  auto& fast = g.add_node(SchedulerKind::kFcfs, 2.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  fast.submit(std::move(job));
  g.run_for(5_s);

  // The slower remote node wins because the initiator does not bid.
  EXPECT_EQ(g.tracker.find(id)->assignments[0].first, NodeId{1});
}

TEST(Protocol, NonMatchingNodesForwardInsteadOfBidding) {
  TestGrid g;
  grid::NodeProfile sparc = TestGrid::universal_profile();
  sparc.arch = grid::Architecture::kSparc;
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);  // initiator cannot run it
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);  // relay hop, cannot run it
  g.add_node(SchedulerKind::kFcfs, 1.0);         // the only match
  g.connect_line();  // 0 - 1 - 2: node 2 reachable only through node 1

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{2});
  EXPECT_GT(g.node(1).counters().requests_forwarded, 0u);
}

TEST(Protocol, MatchingNodeDoesNotForwardByDefault) {
  // Paper-literal rule: a satisfied REQUEST stops at the bidder.
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);  // initiator
  g.add_node(SchedulerKind::kFcfs, 1.0);  // matches -> absorbs the flood
  g.add_node(SchedulerKind::kFcfs, 2.0);  // behind node 1, never sees it
  g.connect_line();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  EXPECT_EQ(g.node(1).counters().requests_forwarded, 0u);
  // Node 2 would be the better (faster) choice, but the flood stopped.
  EXPECT_NE(g.tracker.find(id)->assignments[0].first, NodeId{2});
}

TEST(Protocol, HopLimitBoundsFloodReach) {
  TestGrid g;
  g.config.request_hops = 2;  // initiator -> n1 -> n2, no further
  g.config.initiator_self_candidate = false;
  grid::NodeProfile sparc = TestGrid::universal_profile();
  sparc.arch = grid::Architecture::kSparc;
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.add_node(SchedulerKind::kFcfs, 1.0);  // 3 hops away: unreachable
  g.connect_line();
  g.config.retry.max_attempts = 1;

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(30_s);

  const JobRecord* rec = g.tracker.find(id);
  EXPECT_TRUE(rec->assignments.empty());
  EXPECT_TRUE(rec->unschedulable);
}

TEST(Protocol, RetriesUntilMatchAppears) {
  TestGrid g;
  g.config.retry.max_attempts = 0;  // retry forever
  grid::NodeProfile sparc = TestGrid::universal_profile();
  sparc.arch = grid::Architecture::kSparc;
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(10_s);  // first attempt + at least one retry
  EXPECT_GT(g.tracker.find(id)->retries, 0u);
  EXPECT_TRUE(g.tracker.find(id)->assignments.empty());

  // A matching node joins the overlay; the next retry finds it.
  auto& late_joiner = g.add_node(SchedulerKind::kFcfs, 1.0);
  g.topo.add_link(NodeId{0}, late_joiner.id());
  g.run_for(60_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, late_joiner.id());
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Protocol, UnschedulableAfterMaxAttempts) {
  TestGrid g;
  g.config.retry.max_attempts = 3;
  grid::NodeProfile sparc = TestGrid::universal_profile();
  sparc.arch = grid::Architecture::kSparc;
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.add_node(SchedulerKind::kFcfs, 1.0, sparc);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_min);

  const JobRecord* rec = g.tracker.find(id);
  EXPECT_TRUE(rec->unschedulable);
  EXPECT_EQ(rec->retries, 2u);  // attempts 2 and 3
  EXPECT_EQ(g.tracker.unschedulable_count(), 1u);
}

TEST(Protocol, QueueBuildsUpFcfs) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  auto job1 = g.make_job(2_h);
  auto job2 = g.make_job(1_h);
  auto job3 = g.make_job(1_h);
  g.node(0).submit(std::move(job1));
  g.node(0).submit(std::move(job2));
  g.node(0).submit(std::move(job3));
  g.run_for(5_s);

  EXPECT_TRUE(g.node(0).executing());
  EXPECT_EQ(g.node(0).queue_length(), 2u);
  g.run_for(4_h);
  EXPECT_EQ(g.tracker.completed_count(), 3u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Protocol, VirtualOrgConstraintRestrictsPlacement) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0, TestGrid::universal_profile(), "vo-a");
  g.add_node(SchedulerKind::kFcfs, 3.0, TestGrid::universal_profile(), "vo-b");
  g.connect_all();

  auto job = g.make_job(1_h);
  job.requirements.virtual_org = "vo-a";
  const JobId id = job.id;
  g.node(1).submit(std::move(job));  // submitted to the wrong VO's node
  g.run_for(5_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{0});
}

TEST(Protocol, DeadlineJobsOnlyMatchDeadlineSchedulers) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 3.0);  // fast, but batch
  g.add_node(SchedulerKind::kEdf, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h, /*deadline_in=*/10_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  const JobRecord* rec = g.tracker.find(id);
  ASSERT_EQ(rec->assignments.size(), 1u);
  EXPECT_EQ(rec->assignments[0].first, NodeId{1});
}

TEST(Protocol, BatchJobsNeverLandOnDeadlineSchedulers) {
  TestGrid g;
  g.add_node(SchedulerKind::kEdf, 3.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();

  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  EXPECT_EQ(g.tracker.find(id)->assignments[0].first, NodeId{1});
}

TEST(Protocol, AcceptTrafficIsCompact) {
  TestGrid g;
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();
  auto job = g.make_job(1_h);
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  const auto accept = g.net().traffic().of(kAcceptType);
  ASSERT_GE(accept.messages, 1u);
  EXPECT_EQ(accept.bytes, accept.messages * kAcceptWireBytes);
  const auto request = g.net().traffic().of(kRequestType);
  ASSERT_GE(request.messages, 1u);
  EXPECT_EQ(request.bytes, request.messages * kRequestWireBytes);
}

TEST(Protocol, DuplicateFloodDeliveriesAreIgnored) {
  TestGrid g;
  g.config.request_fanout = 10;
  for (int i = 0; i < 6; ++i) g.add_node(SchedulerKind::kFcfs, 1.0);
  g.connect_all();
  auto job = g.make_job(1_h);
  const JobId id = job.id;
  g.node(0).submit(std::move(job));
  g.run_for(5_s);

  // Every node bids at most once despite receiving the flood from several
  // neighbors in a clique.
  const auto accepts = g.net().traffic().of(kAcceptType).messages;
  EXPECT_LE(accepts, 5u);
  ASSERT_EQ(g.tracker.find(id)->assignments.size(), 1u);
  EXPECT_TRUE(g.tracker.violations().empty());
}

TEST(Protocol, ExecutionOrderRespectsLocalPolicy) {
  TestGrid g;
  g.add_node(SchedulerKind::kSjf, 1.0);
  auto long_job = g.make_job(4_h);
  auto short_job = g.make_job(1_h);
  const JobId long_id = long_job.id;
  const JobId short_id = short_job.id;
  g.node(0).submit(std::move(long_job));
  g.run_for(1_min);  // long job starts executing (no preemption)
  g.node(0).submit(std::move(short_job));
  auto mid_job = g.make_job(2_h);
  const JobId mid_id = mid_job.id;
  g.node(0).submit(std::move(mid_job));
  g.run_for(10_h);

  const auto* l = g.tracker.find(long_id);
  const auto* s = g.tracker.find(short_id);
  const auto* m = g.tracker.find(mid_id);
  ASSERT_TRUE(l->done() && s->done() && m->done());
  EXPECT_LT(*l->completed, *s->completed);  // ran first, no preemption
  EXPECT_LT(*s->completed, *m->completed);  // SJF picked the shorter one
}

}  // namespace
}  // namespace aria::proto
