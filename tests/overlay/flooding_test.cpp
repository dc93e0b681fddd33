#include "overlay/flooding.hpp"

#include <gtest/gtest.h>

#include <set>

#include "overlay/bootstrap.hpp"

namespace aria::overlay {
namespace {

Uuid make_id(Rng& rng) { return Uuid::generate(rng); }

TEST(FloodRelay, MarkSeenFirstTimeOnly) {
  Topology t;
  t.add_node(NodeId{1});
  Rng rng{1};
  FloodRelay relay{t, rng.fork(1)};
  const Uuid id = make_id(rng);
  EXPECT_TRUE(relay.mark_seen(NodeId{1}, id));
  EXPECT_FALSE(relay.mark_seen(NodeId{1}, id));
  EXPECT_TRUE(relay.has_seen(NodeId{1}, id));
  EXPECT_FALSE(relay.has_seen(NodeId{2}, id));
}

TEST(FloodRelay, IndependentPerFlood) {
  Topology t;
  Rng rng{2};
  FloodRelay relay{t, rng.fork(1)};
  const Uuid a = make_id(rng), b = make_id(rng);
  EXPECT_TRUE(relay.mark_seen(NodeId{1}, a));
  EXPECT_TRUE(relay.mark_seen(NodeId{1}, b));
  EXPECT_FALSE(relay.mark_seen(NodeId{1}, a));
}

TEST(FloodRelay, ForgetFreesState) {
  Topology t;
  Rng rng{3};
  FloodRelay relay{t, rng.fork(1)};
  const Uuid id = make_id(rng);
  relay.mark_seen(NodeId{1}, id);
  EXPECT_EQ(relay.tracked_floods(), 1u);
  relay.forget(id);
  EXPECT_EQ(relay.tracked_floods(), 0u);
  // A forgotten flood id would be processed again (the protocol only
  // forgets floods that can no longer be in flight).
  EXPECT_TRUE(relay.mark_seen(NodeId{1}, id));
}

TEST(FloodRelay, PickTargetsReturnsNeighborsOnly) {
  Topology t;
  for (std::uint32_t i = 1; i <= 6; ++i) t.add_link(NodeId{0}, NodeId{i});
  Rng rng{4};
  FloodRelay relay{t, rng.fork(1)};
  for (int i = 0; i < 50; ++i) {
    const auto picks = relay.pick_targets(NodeId{0}, 3);
    EXPECT_EQ(picks.size(), 3u);
    std::set<NodeId> unique(picks.begin(), picks.end());
    EXPECT_EQ(unique.size(), 3u);
    for (NodeId p : picks) EXPECT_TRUE(t.has_link(NodeId{0}, p));
  }
}

TEST(FloodRelay, PickTargetsExcludes) {
  Topology t;
  t.add_link(NodeId{0}, NodeId{1});
  t.add_link(NodeId{0}, NodeId{2});
  t.add_link(NodeId{0}, NodeId{3});
  Rng rng{5};
  FloodRelay relay{t, rng.fork(1)};
  for (int i = 0; i < 50; ++i) {
    const auto picks = relay.pick_targets(NodeId{0}, 5, NodeId{1}, NodeId{2});
    ASSERT_EQ(picks.size(), 1u);
    EXPECT_EQ(picks[0], NodeId{3});
  }
}

TEST(FloodRelay, PickTargetsFewerNeighborsThanFanout) {
  Topology t;
  t.add_link(NodeId{0}, NodeId{1});
  Rng rng{6};
  FloodRelay relay{t, rng.fork(1)};
  const auto picks = relay.pick_targets(NodeId{0}, 4);
  ASSERT_EQ(picks.size(), 1u);
  EXPECT_EQ(picks[0], NodeId{1});
}

TEST(FloodRelay, PickTargetsEmptyForIsolatedNode) {
  Topology t;
  t.add_node(NodeId{0});
  Rng rng{7};
  FloodRelay relay{t, rng.fork(1)};
  EXPECT_TRUE(relay.pick_targets(NodeId{0}, 4).empty());
}

TEST(FloodRelay, PickTargetsIsRandomized) {
  Topology t;
  for (std::uint32_t i = 1; i <= 8; ++i) t.add_link(NodeId{0}, NodeId{i});
  Rng rng{8};
  FloodRelay relay{t, rng.fork(1)};
  std::set<NodeId> seen;
  for (int i = 0; i < 100; ++i) {
    for (NodeId p : relay.pick_targets(NodeId{0}, 2)) seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 8u);  // over time every neighbor gets picked
}

TEST(FloodRelay, TtlSweepReclaimsExpiredEntries) {
  static_assert(FloodRelay::kTtl == Duration::seconds(60));
  Topology t;
  Rng rng{20};
  FloodRelay relay{t, rng.fork(1)};
  const Uuid a = make_id(rng), b = make_id(rng);
  relay.mark_seen(NodeId{1}, a, TimePoint::origin());
  relay.mark_seen(NodeId{1}, b, TimePoint::origin() + Duration::seconds(30));
  EXPECT_EQ(relay.tracked_floods(), 2u);
  // At t=60 `a` expires but `b` (first seen at 30) does not.
  const Uuid c = make_id(rng);
  relay.mark_seen(NodeId{2}, c, TimePoint::origin() + Duration::seconds(60));
  EXPECT_EQ(relay.tracked_floods(), 2u);  // b + c
  EXPECT_FALSE(relay.has_seen(NodeId{1}, a));
  EXPECT_TRUE(relay.has_seen(NodeId{1}, b));
}

TEST(FloodRelay, LateDuplicateAfterForgetIsEventuallyReclaimed) {
  // An explicit forget() followed by a straggler duplicate re-creates the
  // entry; the sweep must still reclaim it, one TTL after the re-creation.
  Topology t;
  Rng rng{21};
  FloodRelay relay{t, rng.fork(1)};
  const Uuid id = make_id(rng);
  relay.mark_seen(NodeId{1}, id, TimePoint::origin());
  relay.forget(id);
  // The straggler re-creates the entry at t=90...
  EXPECT_TRUE(relay.mark_seen(
      NodeId{1}, id, TimePoint::origin() + Duration::seconds(90)));
  EXPECT_EQ(relay.tracked_floods(), 1u);
  // ...and the TTL sweep reclaims it one ttl later, without an explicit
  // forget. The stale expiry record from the first sighting must not have
  // reclaimed the re-created entry early (checked at t=120 < 90+60).
  const Uuid other = make_id(rng);
  relay.mark_seen(NodeId{2}, other,
                  TimePoint::origin() + Duration::seconds(120));
  EXPECT_TRUE(relay.has_seen(NodeId{1}, id));
  relay.mark_seen(NodeId{2}, other,
                  TimePoint::origin() + Duration::seconds(151));
  EXPECT_FALSE(relay.has_seen(NodeId{1}, id));
}

TEST(FloodRelay, EveryRelaySweepsExactlyAtTheTtl) {
  // No setup call: a freshly built relay sweeps, and an entry lives until
  // exactly kTtl after its first sighting.
  Topology t;
  Rng rng{22};
  FloodRelay relay{t, rng.fork(1)};
  const Uuid id = make_id(rng), other = make_id(rng);
  const TimePoint t0 = TimePoint::origin() + Duration::hours(1);
  relay.mark_seen(NodeId{1}, id, t0);
  relay.mark_seen(NodeId{2}, other,
                  t0 + FloodRelay::kTtl - Duration::micros(1));
  EXPECT_TRUE(relay.has_seen(NodeId{1}, id));
  relay.mark_seen(NodeId{2}, other, t0 + FloodRelay::kTtl);
  EXPECT_FALSE(relay.has_seen(NodeId{1}, id));
  EXPECT_EQ(relay.tracked_floods(), 1u);  // `other` only
}

TEST(FloodRelay, SweepKeepsBoundedUnderStragglerChurn) {
  // Continuous stream of distinct floods with time advancing: the tracked
  // set must stay bounded by what fits inside one TTL window.
  Topology t;
  Rng rng{23};
  FloodRelay relay{t, rng.fork(1)};
  for (int i = 0; i < 1000; ++i) {
    const Uuid id = make_id(rng);
    const TimePoint now = TimePoint::origin() + Duration::seconds(i);
    relay.mark_seen(NodeId{1}, id, now);
    relay.forget(id);
    relay.mark_seen(NodeId{1}, id, now);  // straggler re-creation
  }
  EXPECT_LE(relay.tracked_floods(), 61u);
}

// Simulated flood over a real topology: verify hop/fanout bounds control
// coverage the way the protocol relies on.
std::size_t flood_coverage(const Topology& /*topo*/, NodeId origin,
                           std::size_t hops, std::size_t fanout,
                           FloodRelay& relay, Rng& rng) {
  const Uuid id = Uuid::generate(rng);
  std::size_t covered = 0;
  std::vector<std::pair<NodeId, std::size_t>> frontier{{origin, hops}};
  relay.mark_seen(origin, id);
  ++covered;
  while (!frontier.empty()) {
    auto [node, left] = frontier.back();
    frontier.pop_back();
    if (left == 0) continue;
    for (NodeId next : relay.pick_targets(node, fanout)) {
      if (!relay.mark_seen(next, id)) continue;
      ++covered;
      frontier.emplace_back(next, left - 1);
    }
  }
  return covered;
}

TEST(FloodRelay, CoverageGrowsWithHops) {
  Rng rng{9};
  Topology t = bootstrap_random(300, 4.0, rng);
  FloodRelay relay{t, rng.fork(1)};
  const std::size_t small = flood_coverage(t, NodeId{0}, 2, 4, relay, rng);
  const std::size_t large = flood_coverage(t, NodeId{0}, 9, 4, relay, rng);
  EXPECT_LT(small, large);
  EXPECT_LE(small, 1u + 4u + 16u);  // fanout bound per hop
}

TEST(FloodRelay, NineHopFanoutFourCoversMostOfPaperSizedOverlay) {
  Rng rng{10};
  Topology t = bootstrap_random(500, 4.0, rng);
  FloodRelay relay{t, rng.fork(1)};
  const std::size_t covered = flood_coverage(t, NodeId{3}, 9, 4, relay, rng);
  EXPECT_GT(covered, 300u);  // REQUEST floods reach most of the grid
}

TEST(FloodRelay, InformFloodIsLighter) {
  Rng rng{11};
  Topology t = bootstrap_random(500, 4.0, rng);
  FloodRelay relay{t, rng.fork(1)};
  const std::size_t inform = flood_coverage(t, NodeId{3}, 8, 2, relay, rng);
  const std::size_t request = flood_coverage(t, NodeId{3}, 9, 4, relay, rng);
  EXPECT_LT(inform, request);  // "more lightweight approach" (paper §IV-E)
}

}  // namespace
}  // namespace aria::overlay
