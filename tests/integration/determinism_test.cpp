// Golden-value determinism regression. The event kernel promises bit-exact
// reproducibility for a fixed seed: ties break on (time, key, sequence) and
// the key/sequence allocation order is part of the public contract. These constants
// were captured from the original shared_ptr/string-keyed kernel and must
// survive any rewrite of the queue or the traffic ledger — if a change to
// src/sim shifts them, it reordered events, which silently invalidates every
// cross-kernel comparison in the bench history.
#include <gtest/gtest.h>

#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria::workload {
namespace {

ScenarioConfig golden_scenario() {
  ScenarioConfig c = scenario_by_name("iMixed");
  c.node_count = 60;
  c.job_count = 80;
  c.submission_interval = c.submission_interval / 2;
  c.horizon = Duration::hours(30);
  return c;
}

// Re-pinned when latency jitter, fault verdicts and flood target picks
// moved from shared to per-entity RNG streams (the PDES determinism
// contract, docs/pdes.md): the draws themselves changed, so message counts
// and event totals shifted, but completions stayed at the same plateau.
// kGoldenEventsFired alone was re-pinned (91929 -> 91227) when flood dedup
// state got one expiry, the relay's TTL sweep, instead of a scheduled
// forget event per opened flood; nothing else moved.
constexpr std::uint64_t kGoldenSeed = 42;
constexpr std::size_t kGoldenCompleted = 80;
constexpr std::uint64_t kGoldenEventsFired = 91227;
constexpr std::uint64_t kGoldenTotalMessages = 67226;
constexpr std::uint64_t kGoldenTotalBytes = 68025856;
constexpr std::uint64_t kGoldenReschedules = 37;
constexpr std::uint64_t kGoldenRequestMessages = 7877;
constexpr std::uint64_t kGoldenInformBytes = 59724800;

TEST(Determinism, GoldenRunMatchesRecordedKernelBehaviour) {
  const RunResult r = run_scenario(golden_scenario(), kGoldenSeed);
  EXPECT_EQ(r.completed(), kGoldenCompleted);
  EXPECT_EQ(r.events_fired, kGoldenEventsFired);
  EXPECT_EQ(r.traffic.total().messages, kGoldenTotalMessages);
  EXPECT_EQ(r.traffic.total().bytes, kGoldenTotalBytes);
  EXPECT_EQ(r.tracker.total_reschedules(), kGoldenReschedules);
  EXPECT_EQ(r.traffic.of("REQUEST").messages, kGoldenRequestMessages);
  EXPECT_EQ(r.traffic.of("INFORM").bytes, kGoldenInformBytes);
}

TEST(Determinism, SameSeedTwiceIsBitIdentical) {
  const RunResult a = run_scenario(golden_scenario(), kGoldenSeed);
  const RunResult b = run_scenario(golden_scenario(), kGoldenSeed);
  EXPECT_EQ(a.events_fired, b.events_fired);
  EXPECT_EQ(a.traffic.total().messages, b.traffic.total().messages);
  EXPECT_EQ(a.traffic.total().bytes, b.traffic.total().bytes);
  EXPECT_EQ(a.tracker.total_reschedules(), b.tracker.total_reschedules());
  // Per-type traffic identical, not just the totals.
  const auto bt = b.traffic.by_type();
  for (const auto& [type, entry] : a.traffic.by_type()) {
    const auto it = bt.find(type);
    ASSERT_NE(it, bt.end()) << type;
    EXPECT_EQ(entry.messages, it->second.messages) << type;
    EXPECT_EQ(entry.bytes, it->second.bytes) << type;
  }
  // Per-job outcomes identical down to executor and completion instant.
  ASSERT_EQ(a.tracker.records().size(), b.tracker.records().size());
  for (const auto& [id, rec] : a.tracker.records()) {
    const proto::JobRecord* other = b.tracker.find(id);
    ASSERT_NE(other, nullptr) << id.to_string();
    EXPECT_EQ(rec.executor, other->executor) << id.to_string();
    ASSERT_TRUE(rec.completed.has_value());
    ASSERT_TRUE(other->completed.has_value());
    EXPECT_EQ(*rec.completed, *other->completed) << id.to_string();
  }
}

}  // namespace
}  // namespace aria::workload
