// Unit tests of RunResult's derived metrics over a hand-constructed
// tracker (no simulation): the formulas behind every figure.
#include <gtest/gtest.h>

#include "workload/engine.hpp"

namespace aria::workload {
namespace {

using namespace aria::literals;

const TimePoint t0 = TimePoint::origin();

grid::JobSpec job(Rng& rng, std::optional<TimePoint> deadline = {}) {
  grid::JobSpec j;
  j.id = JobId::generate(rng);
  j.ert = 1_h;
  j.deadline = deadline;
  return j;
}

void complete_job(proto::JobTracker& t, const grid::JobSpec& j, NodeId node,
                  TimePoint submitted, Duration wait, Duration exec) {
  t.on_event(submitted, proto::event::Submitted{j, NodeId{0}});
  t.on_event(submitted, proto::event::Assigned{j, node, false});
  t.on_event(submitted + wait, proto::event::Started{j.id, node});
  t.on_event(submitted + wait + exec,
             proto::event::Completed{j.id, node, exec});
}

TEST(RunResultMetrics, MeansOverCompletedJobs) {
  Rng rng{1};
  RunResult r;
  r.final_node_count = 4;
  complete_job(r.tracker, job(rng), NodeId{1}, t0, 10_min, 60_min);
  complete_job(r.tracker, job(rng), NodeId{2}, t0 + 1_h, 30_min, 90_min);
  // An incomplete job must not pollute the means.
  const auto pending = job(rng);
  r.tracker.on_event(t0, proto::event::Submitted{pending, NodeId{0}});

  EXPECT_DOUBLE_EQ(r.mean_waiting_minutes(), 20.0);
  EXPECT_DOUBLE_EQ(r.mean_execution_minutes(), 75.0);
  EXPECT_DOUBLE_EQ(r.mean_completion_minutes(), 95.0);
  EXPECT_EQ(r.completed(), 2u);
}

TEST(RunResultMetrics, EmptyTrackerIsZero) {
  RunResult r;
  EXPECT_DOUBLE_EQ(r.mean_completion_minutes(), 0.0);
  EXPECT_EQ(r.completed(), 0u);
  EXPECT_EQ(r.missed_deadlines(), 0u);
  EXPECT_DOUBLE_EQ(r.mean_met_slack_minutes(), 0.0);
  EXPECT_DOUBLE_EQ(r.mean_missed_time_minutes(), 0.0);
}

TEST(RunResultMetrics, DeadlineAccounting) {
  Rng rng{2};
  RunResult r;
  r.final_node_count = 4;
  // Met with 1h slack: deadline t0+3h, completes at 10m + 110m = t0+2h.
  complete_job(r.tracker, job(rng, t0 + 3_h), NodeId{1}, t0, 10_min, 110_min);
  // Missed by 30m: deadline t0+1h, completes at t0+1h30m.
  complete_job(r.tracker, job(rng, t0 + 1_h), NodeId{2}, t0, 30_min, 1_h);
  // Deadline job never completed: counted as missed too.
  const auto stuck = job(rng, t0 + 2_h);
  r.tracker.on_event(t0, proto::event::Submitted{stuck, NodeId{0}});

  EXPECT_EQ(r.deadline_jobs(), 3u);
  EXPECT_EQ(r.missed_deadlines(), 2u);
  EXPECT_DOUBLE_EQ(r.mean_met_slack_minutes(), 60.0);
  EXPECT_DOUBLE_EQ(r.mean_missed_time_minutes(), 30.0);
}

TEST(RunResultMetrics, CompletedSeriesBuckets) {
  Rng rng{3};
  RunResult r;
  r.scenario_name = "x";
  complete_job(r.tracker, job(rng), NodeId{1}, t0, 0_s, 30_min);
  complete_job(r.tracker, job(rng), NodeId{1}, t0, 0_s, 90_min);
  const auto curve = r.completed_series(1_h, t0 + 3_h);
  ASSERT_EQ(curve.size(), 4u);  // 0,1,2,3 h
  EXPECT_DOUBLE_EQ(curve.points()[0].value, 0.0);
  EXPECT_DOUBLE_EQ(curve.points()[1].value, 1.0);
  EXPECT_DOUBLE_EQ(curve.points()[2].value, 2.0);
  EXPECT_EQ(curve.label(), "x");
}

TEST(RunResultMetrics, BalanceDistributions) {
  Rng rng{4};
  RunResult r;
  r.final_node_count = 3;
  // Node 1 executes two jobs, node 2 one, node 0 none.
  complete_job(r.tracker, job(rng), NodeId{1}, t0, 0_s, 1_h);
  complete_job(r.tracker, job(rng), NodeId{1}, t0, 0_s, 1_h);
  complete_job(r.tracker, job(rng), NodeId{2}, t0, 0_s, 2_h);
  const auto exec = r.execution_balance();
  EXPECT_DOUBLE_EQ(exec.mean, 1.0);
  EXPECT_DOUBLE_EQ(exec.max, 2.0);
  const auto busy = r.busy_time_balance();
  EXPECT_DOUBLE_EQ(busy.max, 2.0 * 3600.0);
  EXPECT_GT(busy.gini, 0.0);
}

TEST(RunResultMetrics, TrafficHelpers) {
  RunResult r;
  r.traffic.record("REQUEST", 1024 * 1024);
  r.traffic.record("ACCEPT", 512 * 1024);
  EXPECT_DOUBLE_EQ(r.traffic_mib("REQUEST"), 1.0);
  EXPECT_DOUBLE_EQ(r.traffic_mib("ACCEPT"), 0.5);
  EXPECT_DOUBLE_EQ(r.traffic_mib("INFORM"), 0.0);
  EXPECT_DOUBLE_EQ(r.traffic_mib_total(), 1.5);
}

}  // namespace
}  // namespace aria::workload
