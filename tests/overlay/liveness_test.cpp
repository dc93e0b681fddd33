#include "overlay/liveness.hpp"

#include <gtest/gtest.h>

namespace aria::overlay {
namespace {

HealingParams quick_params() {
  HealingParams p;
  p.enabled = true;
  p.suspect_after = 2;
  p.evict_after = 4;
  p.degree_floor = 4;
  p.contact_cache = 4;
  return p;
}

TEST(NeighborView, TrackStartsLive) {
  NeighborView v;
  v.track(NodeId{1});
  EXPECT_TRUE(v.tracked(NodeId{1}));
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_EQ(v.live_degree(), 1u);
  EXPECT_FALSE(v.tracked(NodeId{2}));
  EXPECT_EQ(v.state(NodeId{2}), PeerState::kEvicted);  // unknown == gone
}

TEST(NeighborView, MissedProbesSuspectThenEvict) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 1);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kSuspected);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kSuspected);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kEvicted);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kEvicted);
  EXPECT_EQ(v.stats().neighbor_evictions, 1u);
  EXPECT_EQ(v.stats().false_suspicions, 0u);
}

TEST(NeighborView, PongClearsMissesAndCountsFalseSuspicion) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 7);
  v.record_miss(NodeId{1}, p);
  v.record_miss(NodeId{1}, p);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kSuspected);
  v.probe_sent(NodeId{1}, 8);
  v.pong_received(NodeId{1}, 8);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_EQ(v.stats().false_suspicions, 1u);
  // The miss counter reset: eviction needs the full run of misses again.
  v.probe_sent(NodeId{1}, 9);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
}

TEST(NeighborView, StalePongIsIgnored) {
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 5);
  v.pong_received(NodeId{1}, 4);  // answer to an older probe
  EXPECT_TRUE(v.outstanding(NodeId{1}));
  v.pong_received(NodeId{1}, 5);
  EXPECT_FALSE(v.outstanding(NodeId{1}));
  v.pong_received(NodeId{3}, 5);  // never tracked: no-op
}

TEST(NeighborView, TargetsKeepSuspectedDropEvicted) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.track(NodeId{2});
  v.track(NodeId{3});
  v.probe_sent(NodeId{2}, 1);
  v.record_miss(NodeId{2}, p);
  v.record_miss(NodeId{2}, p);  // 2 -> suspected
  v.probe_sent(NodeId{3}, 2);
  for (int i = 0; i < 4; ++i) v.record_miss(NodeId{3}, p);  // 3 -> evicted
  EXPECT_EQ(v.targets(), (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  EXPECT_EQ(v.live_neighbors(), (std::vector<NodeId>{NodeId{1}}));
  EXPECT_EQ(v.tracked_peers(),
            (std::vector<NodeId>{NodeId{1}, NodeId{2}, NodeId{3}}));
}

TEST(NeighborView, TrackRevivesEvictedPeer) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 1);
  for (int i = 0; i < 4; ++i) v.record_miss(NodeId{1}, p);
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kEvicted);
  v.track(NodeId{1});  // link re-established
  EXPECT_EQ(v.state(NodeId{1}), PeerState::kLive);
  EXPECT_FALSE(v.outstanding(NodeId{1}));
  // Miss history restarted from zero.
  v.probe_sent(NodeId{1}, 2);
  EXPECT_EQ(v.record_miss(NodeId{1}, p), NeighborView::Transition::kNone);
}

TEST(NeighborView, ContactCacheDedupesAndBounds) {
  NeighborView v;
  v.track(NodeId{9});
  v.learn_contact(NodeId{9}, NodeId{0}, 4);   // tracked: rejected
  v.learn_contact(NodeId{0}, NodeId{0}, 4);   // self: rejected
  v.learn_contact(kInvalidNode, NodeId{0}, 4);
  v.learn_contact(NodeId{1}, NodeId{0}, 4);
  v.learn_contact(NodeId{1}, NodeId{0}, 4);   // duplicate
  v.learn_contact(NodeId{2}, NodeId{0}, 4);
  EXPECT_EQ(v.contacts(), (std::vector<NodeId>{NodeId{1}, NodeId{2}}));
  v.learn_contact(NodeId{3}, NodeId{0}, 4);
  v.learn_contact(NodeId{4}, NodeId{0}, 4);
  v.learn_contact(NodeId{5}, NodeId{0}, 4);  // overflows: FIFO drops 1
  EXPECT_EQ(v.contacts(), (std::vector<NodeId>{NodeId{2}, NodeId{3}, NodeId{4},
                                               NodeId{5}}));
}

TEST(NeighborView, TakeContactSkipsTrackedAndExhausts) {
  NeighborView v;
  v.learn_contact(NodeId{1}, NodeId{0}, 8);
  v.learn_contact(NodeId{2}, NodeId{0}, 8);
  v.track(NodeId{1});  // became a neighbor meanwhile (also purges the cache)
  EXPECT_EQ(v.take_contact(), NodeId{2});
  EXPECT_EQ(v.take_contact(), kInvalidNode);
}

TEST(NeighborView, ClearWipesPeersButKeepsStats) {
  const HealingParams p = quick_params();
  NeighborView v;
  v.track(NodeId{1});
  v.probe_sent(NodeId{1}, 1);
  for (int i = 0; i < 4; ++i) v.record_miss(NodeId{1}, p);
  v.learn_contact(NodeId{5}, NodeId{0}, 4);
  v.clear();
  EXPECT_EQ(v.tracked_count(), 0u);
  EXPECT_TRUE(v.contacts().empty());
  EXPECT_EQ(v.stats().neighbor_evictions, 1u);  // counters model the whole lifetime
}

}  // namespace
}  // namespace aria::overlay
