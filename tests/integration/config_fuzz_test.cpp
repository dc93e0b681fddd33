// Configuration fuzzing: protocol invariants must survive arbitrary (valid)
// parameter combinations — flood shapes, timers, thresholds, latencies,
// feature flags. Each case draws a random configuration from a seeded RNG
// and runs a small grid to completion.
#include <gtest/gtest.h>

#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::workload {
namespace {

using namespace aria::literals;

ScenarioConfig random_config(std::uint64_t seed) {
  Rng rng{seed};
  ScenarioConfig c = scenario_by_name("iMixed");
  c.node_count = static_cast<std::size_t>(rng.uniform_int(10, 80));
  c.job_count = static_cast<std::size_t>(rng.uniform_int(10, 60));
  c.submission_start = Duration::seconds(rng.uniform_int(10, 300));
  c.submission_interval = Duration::seconds(rng.uniform_int(2, 40));
  c.horizon = 40_h;

  c.aria.request_hops = static_cast<std::size_t>(rng.uniform_int(2, 12));
  c.aria.request_fanout = static_cast<std::size_t>(rng.uniform_int(1, 8));
  c.aria.inform_hops = static_cast<std::size_t>(rng.uniform_int(1, 10));
  c.aria.inform_fanout = static_cast<std::size_t>(rng.uniform_int(1, 6));
  c.aria.inform_period = Duration::seconds(rng.uniform_int(30, 600));
  c.aria.inform_jobs_per_period =
      static_cast<std::size_t>(rng.uniform_int(1, 6));
  c.aria.reschedule_threshold = Duration::seconds(rng.uniform_int(1, 1800));
  c.aria.accept_timeout = Duration::seconds(rng.uniform_int(1, 10));
  c.aria.retry.backoff = Duration::seconds(rng.uniform_int(5, 60));
  c.aria.dynamic_rescheduling = rng.bernoulli(0.7);
  c.aria.initiator_self_candidate = rng.bernoulli(0.8);
  c.aria.failsafe = rng.bernoulli(0.3);
  c.aria.retry.max_attempts = 0;  // retry until placed

  const int mix = static_cast<int>(rng.uniform_int(0, 3));
  if (mix == 0) {
    c.scheduler_mix = {sched::SchedulerKind::kFcfs};
  } else if (mix == 1) {
    c.scheduler_mix = {sched::SchedulerKind::kSjf};
  } else if (mix == 2) {
    c.scheduler_mix = {sched::SchedulerKind::kFcfs,
                       sched::SchedulerKind::kSjf,
                       sched::SchedulerKind::kPriority,
                       sched::SchedulerKind::kFairSjf};
  } else {
    c.scheduler_mix = {sched::SchedulerKind::kEdf};
    c.jobs.deadline_slack_mean = Duration::minutes(rng.uniform_int(60, 600));
  }

  const int err = static_cast<int>(rng.uniform_int(0, 2));
  c.ert_error.mode = err == 0   ? grid::ErtErrorMode::kExact
                     : err == 1 ? grid::ErtErrorMode::kSymmetric
                                : grid::ErtErrorMode::kOptimistic;
  c.ert_error.epsilon = rng.uniform(0.0, 0.4);

  const int fam = static_cast<int>(rng.uniform_int(0, 2));
  c.overlay_family = fam == 0 ? ScenarioConfig::OverlayFamily::kBlatant
                     : fam == 1
                         ? ScenarioConfig::OverlayFamily::kRandomRegular
                         : ScenarioConfig::OverlayFamily::kSmallWorld;
  return c;
}

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigFuzz, InvariantsHoldUnderRandomConfigs) {
  const ScenarioConfig cfg = random_config(GetParam());
  GridSimulation sim{cfg, GetParam() * 31 + 7};
  const RunResult r = sim.run();

  // Unconditional invariant: the lifecycle is never violated, whatever the
  // configuration.
  EXPECT_TRUE(r.tracker.violations().empty())
      << "seed " << GetParam() << ": " << r.tracker.violations().front();

  // Completion is only guaranteed when the REQUEST flood can cover the
  // overlay: a hop budget below the topology's diameter leaves permanent
  // coverage holes (jobs whose only matching nodes sit beyond the radius
  // retry forever). This is faithful protocol behaviour and exactly why
  // the paper pairs 9 flood hops with a 9-bounded-APL overlay (§IV-E).
  const bool coverage_guaranteed =
      cfg.aria.request_hops >= 9 && cfg.aria.request_fanout >= 2;
  if (coverage_guaranteed) {
    EXPECT_EQ(r.completed(), cfg.job_count) << "seed " << GetParam();
    for (proto::AriaNode* node : sim.all_nodes()) {
      EXPECT_FALSE(node->executing());
      EXPECT_EQ(node->queue_length(), 0u);
    }
  } else {
    EXPECT_GT(r.completed(), 0u) << "seed " << GetParam();
  }

  for (const auto& [id, rec] : r.tracker.records()) {
    if (!rec.done()) continue;
    const proto::AriaNode* executor = sim.node(rec.executor);
    ASSERT_NE(executor, nullptr);
    EXPECT_TRUE(grid::satisfies(executor->profile(), rec.spec.requirements,
                                executor->virtual_org()));
  }
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, ConfigFuzz,
                         ::testing::Range(std::uint64_t{1}, std::uint64_t{13}),
                         [](const auto& info) {
                           return "cfg" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace aria::workload
