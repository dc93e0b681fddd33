#include "core/tracker.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace aria::proto {
namespace {

using namespace aria::literals;

grid::JobSpec make_job(Rng& rng, std::optional<TimePoint> deadline = {}) {
  grid::JobSpec j;
  j.id = JobId::generate(rng);
  j.ert = 1_h;
  j.deadline = deadline;
  return j;
}

const TimePoint t0 = TimePoint::origin();

TEST(JobTracker, HappyPathLifecycle) {
  Rng rng{1};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0 + 1_s, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0 + 10_min, event::Started{job.id, NodeId{1}});
  t.on_event(t0 + 70_min, event::Completed{job.id, NodeId{1}, 1_h});

  EXPECT_TRUE(t.violations().empty());
  EXPECT_EQ(t.submitted_count(), 1u);
  EXPECT_EQ(t.completed_count(), 1u);
  const JobRecord* r = t.find(job.id);
  ASSERT_NE(r, nullptr);
  EXPECT_TRUE(r->done());
  EXPECT_EQ(r->waiting_time(), 10_min);
  EXPECT_EQ(r->execution_time(), 1_h);
  EXPECT_EQ(r->completion_time(), 70_min);
  EXPECT_EQ(r->reschedule_count(), 0u);
  EXPECT_EQ(r->initiator, NodeId{0});
  EXPECT_EQ(r->executor, NodeId{1});
}

TEST(JobTracker, RescheduleChainRecorded) {
  Rng rng{2};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0 + 1_s, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0 + 5_min, event::Assigned{job, NodeId{2}, true});
  t.on_event(t0 + 10_min, event::Assigned{job, NodeId{3}, true});
  t.on_event(t0 + 15_min, event::Started{job.id, NodeId{3}});
  t.on_event(t0 + 75_min, event::Completed{job.id, NodeId{3}, 1_h});

  EXPECT_TRUE(t.violations().empty());
  const JobRecord* r = t.find(job.id);
  EXPECT_EQ(r->reschedule_count(), 2u);
  EXPECT_EQ(t.total_reschedules(), 2u);
  ASSERT_EQ(r->assignments.size(), 3u);
  EXPECT_EQ(r->assignments[2].first, NodeId{3});
}

TEST(JobTracker, DeadlineMetAndMissed) {
  Rng rng{3};
  JobTracker t;
  const auto met = make_job(rng, t0 + 3_h);
  t.on_event(t0, event::Submitted{met, NodeId{0}});
  t.on_event(t0, event::Assigned{met, NodeId{1}, false});
  t.on_event(t0, event::Started{met.id, NodeId{1}});
  t.on_event(t0 + 2_h, event::Completed{met.id, NodeId{1}, 2_h});

  const auto missed = make_job(rng, t0 + 1_h);
  t.on_event(t0, event::Submitted{missed, NodeId{0}});
  t.on_event(t0, event::Assigned{missed, NodeId{1}, false});
  t.on_event(t0, event::Started{missed.id, NodeId{1}});
  t.on_event(t0 + 90_min, event::Completed{missed.id, NodeId{1}, 90_min});

  EXPECT_FALSE(t.find(met.id)->missed_deadline());
  EXPECT_EQ(t.find(met.id)->deadline_slack(), 1_h);
  EXPECT_TRUE(t.find(missed.id)->missed_deadline());
  EXPECT_EQ(t.find(missed.id)->deadline_slack(), -(30_min));
}

TEST(JobTracker, RetriesAndUnschedulable) {
  Rng rng{4};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0 + 5_s, event::RequestRetry{job.id, 2});
  t.on_event(t0 + 15_s, event::RequestRetry{job.id, 3});
  t.on_event(t0 + 30_s, event::Unschedulable{job.id});
  EXPECT_TRUE(t.violations().empty());
  EXPECT_EQ(t.find(job.id)->retries, 2u);
  EXPECT_TRUE(t.find(job.id)->unschedulable);
  EXPECT_EQ(t.unschedulable_count(), 1u);
}

TEST(JobTracker, ViolationDoubleSubmit) {
  Rng rng{5};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0 + 1_s, event::Submitted{job, NodeId{1}});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("submitted twice"), std::string::npos);
}

TEST(JobTracker, ViolationEventsForUnknownJob) {
  Rng rng{6};
  JobTracker t;
  const auto id = JobId::generate(rng);
  t.on_event(t0, event::Started{id, NodeId{1}});
  t.on_event(t0, event::Completed{id, NodeId{1}, 1_h});
  t.on_event(t0, event::Unschedulable{id});
  EXPECT_EQ(t.violations().size(), 3u);
}

TEST(JobTracker, ViolationDoubleStart) {
  Rng rng{7};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0, event::Started{job.id, NodeId{1}});
  t.on_event(t0 + 1_s, event::Started{job.id, NodeId{1}});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("started twice"), std::string::npos);
}

TEST(JobTracker, ViolationStartOnWrongNode) {
  Rng rng{8};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0, event::Started{job.id, NodeId{2}});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("not assigned"), std::string::npos);
}

TEST(JobTracker, ViolationAssignAfterStart) {
  Rng rng{9};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0, event::Started{job.id, NodeId{1}});
  t.on_event(t0 + 1_s, event::Assigned{job, NodeId{2}, true});
  ASSERT_GE(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("after execution started"),
            std::string::npos);
}

TEST(JobTracker, ViolationCompleteWithoutStart) {
  Rng rng{10};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0 + 1_h, event::Completed{job.id, NodeId{1}, 1_h});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("without starting"), std::string::npos);
  EXPECT_EQ(t.completed_count(), 0u);
}

TEST(JobTracker, ViolationDoubleComplete) {
  Rng rng{11};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0, event::Started{job.id, NodeId{1}});
  t.on_event(t0 + 1_h, event::Completed{job.id, NodeId{1}, 1_h});
  t.on_event(t0 + 2_h, event::Completed{job.id, NodeId{1}, 1_h});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("completed twice"), std::string::npos);
  EXPECT_EQ(t.completed_count(), 1u);
}

TEST(JobTracker, ViolationInconsistentRescheduleFlag) {
  Rng rng{12};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  // The first assignment claims to be a reschedule.
  t.on_event(t0, event::Assigned{job, NodeId{1}, /*reschedule=*/true});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("inconsistent"), std::string::npos);
}

TEST(JobTracker, ViolationCompleteOnDifferentNode) {
  Rng rng{13};
  JobTracker t;
  const auto job = make_job(rng);
  t.on_event(t0, event::Submitted{job, NodeId{0}});
  t.on_event(t0, event::Assigned{job, NodeId{1}, false});
  t.on_event(t0, event::Started{job.id, NodeId{1}});
  t.on_event(t0 + 1_h, event::Completed{job.id, NodeId{9}, 1_h});
  ASSERT_EQ(t.violations().size(), 1u);
  EXPECT_NE(t.violations()[0].find("different node"), std::string::npos);
}

TEST(JobTracker, FindUnknownReturnsNull) {
  Rng rng{14};
  JobTracker t;
  EXPECT_EQ(t.find(JobId::generate(rng)), nullptr);
}

}  // namespace
}  // namespace aria::proto
