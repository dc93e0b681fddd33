#include "overlay/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"

namespace aria::overlay {
namespace {

NodeId n(std::uint32_t v) { return NodeId{v}; }

TEST(Topology, EmptyInvariants) {
  Topology t;
  EXPECT_EQ(t.node_count(), 0u);
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_TRUE(t.connected());
  EXPECT_DOUBLE_EQ(t.average_degree(), 0.0);
  EXPECT_DOUBLE_EQ(t.average_path_length(), 0.0);
}

TEST(Topology, AddNodeIsIdempotent) {
  Topology t;
  t.add_node(n(1));
  t.add_node(n(1));
  EXPECT_EQ(t.node_count(), 1u);
  EXPECT_TRUE(t.has_node(n(1)));
  EXPECT_FALSE(t.has_node(n(2)));
}

TEST(Topology, AddLinkCreatesBothDirections) {
  Topology t;
  EXPECT_TRUE(t.add_link(n(1), n(2)));
  EXPECT_TRUE(t.has_link(n(1), n(2)));
  EXPECT_TRUE(t.has_link(n(2), n(1)));
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_EQ(t.degree(n(1)), 1u);
  EXPECT_EQ(t.degree(n(2)), 1u);
}

TEST(Topology, AddLinkRejectsSelfAndDuplicates) {
  Topology t;
  EXPECT_FALSE(t.add_link(n(1), n(1)));
  EXPECT_TRUE(t.add_link(n(1), n(2)));
  EXPECT_FALSE(t.add_link(n(1), n(2)));
  EXPECT_FALSE(t.add_link(n(2), n(1)));
  EXPECT_EQ(t.link_count(), 1u);
}

TEST(Topology, RemoveLink) {
  Topology t;
  t.add_link(n(1), n(2));
  EXPECT_TRUE(t.remove_link(n(2), n(1)));
  EXPECT_FALSE(t.has_link(n(1), n(2)));
  EXPECT_EQ(t.link_count(), 0u);
  EXPECT_FALSE(t.remove_link(n(1), n(2)));  // already gone
  EXPECT_FALSE(t.remove_link(n(1), n(9)));  // never existed
}

TEST(Topology, RemoveNodeCleansIncidentLinks) {
  Topology t;
  t.add_link(n(1), n(2));
  t.add_link(n(1), n(3));
  t.add_link(n(2), n(3));
  t.remove_node(n(1));
  EXPECT_FALSE(t.has_node(n(1)));
  EXPECT_EQ(t.link_count(), 1u);
  EXPECT_FALSE(t.has_link(n(2), n(1)));
  EXPECT_EQ(t.degree(n(2)), 1u);
  const auto& nb = t.neighbors(n(2));
  EXPECT_TRUE(std::find(nb.begin(), nb.end(), n(1)) == nb.end());
}

TEST(Topology, NeighborsOfUnknownNodeIsEmpty) {
  Topology t;
  EXPECT_TRUE(t.neighbors(n(42)).empty());
  EXPECT_EQ(t.degree(n(42)), 0u);
}

TEST(Topology, DistanceOnPathGraph) {
  Topology t;
  for (std::uint32_t i = 0; i < 5; ++i) t.add_link(n(i), n(i + 1));
  EXPECT_EQ(t.distance(n(0), n(0)), 0u);
  EXPECT_EQ(t.distance(n(0), n(1)), 1u);
  EXPECT_EQ(t.distance(n(0), n(5)), 5u);
  EXPECT_EQ(t.distance(n(2), n(4)), 2u);
}

TEST(Topology, DistanceUnreachableAndUnknown) {
  Topology t;
  t.add_link(n(1), n(2));
  t.add_node(n(3));
  EXPECT_FALSE(t.distance(n(1), n(3)).has_value());
  EXPECT_FALSE(t.distance(n(1), n(99)).has_value());
}

TEST(Topology, DistanceWithoutLinkFindsDetour) {
  // Triangle 1-2-3 plus pendant 4 on 3.
  Topology t;
  t.add_link(n(1), n(2));
  t.add_link(n(2), n(3));
  t.add_link(n(1), n(3));
  t.add_link(n(3), n(4));
  EXPECT_EQ(t.distance(n(1), n(3)), 1u);
  EXPECT_EQ(t.distance_without_link(n(1), n(3), n(1), n(3)), 2u);
  // Removing a bridge disconnects.
  EXPECT_FALSE(t.distance_without_link(n(1), n(4), n(3), n(4)).has_value());
}

TEST(Topology, ConnectedDetection) {
  Topology t;
  t.add_link(n(1), n(2));
  t.add_link(n(2), n(3));
  EXPECT_TRUE(t.connected());
  t.add_node(n(4));
  EXPECT_FALSE(t.connected());
  t.add_link(n(3), n(4));
  EXPECT_TRUE(t.connected());
}

TEST(Topology, SingleNodeIsConnected) {
  Topology t;
  t.add_node(n(1));
  EXPECT_TRUE(t.connected());
}

TEST(Topology, AveragePathLengthOnRing) {
  // Ring of 6: distances from any node are 1,1,2,2,3 -> mean 9/5 = 1.8.
  Topology t;
  for (std::uint32_t i = 0; i < 6; ++i) t.add_link(n(i), n((i + 1) % 6));
  EXPECT_NEAR(t.average_path_length(), 1.8, 1e-9);
}

TEST(Topology, AveragePathLengthOnCompleteGraph) {
  Topology t;
  for (std::uint32_t i = 0; i < 5; ++i) {
    for (std::uint32_t j = i + 1; j < 5; ++j) t.add_link(n(i), n(j));
  }
  EXPECT_DOUBLE_EQ(t.average_path_length(), 1.0);
  EXPECT_DOUBLE_EQ(t.average_degree(), 4.0);
}

/// The per-source definition average_path_length() must equal bit for bit:
/// the mean of distance() over every reachable ordered pair.
double reference_path_length(const Topology& t) {
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  const std::vector<NodeId> ids = t.nodes();
  for (NodeId a : ids) {
    for (NodeId b : ids) {
      if (a == b) continue;
      if (const auto d = t.distance(a, b)) {
        total += *d;
        ++pairs;
      }
    }
  }
  return pairs == 0 ? 0.0
                    : static_cast<double>(total) / static_cast<double>(pairs);
}

/// A seeded random overlay of exactly `size` nodes split into `components`
/// parts (links only inside a part), with id holes left by remove_node, a
/// few nodes left unlinked, and one isolated node past a gap of absent ids.
Topology random_overlay(std::uint32_t size, std::uint32_t components,
                        std::uint64_t seed) {
  Rng rng{seed};
  Topology t;
  const std::uint32_t holes = size / 8 + 1;
  const std::uint32_t span = size + holes;
  for (std::uint32_t i = 0; i < span; ++i) t.add_node(n(i));
  for (std::uint32_t i = 1; i < span; ++i) {
    const auto j = static_cast<std::uint32_t>(rng.uniform_int(0, i - 1));
    if (j % components == i % components && rng.bernoulli(0.9)) {
      t.add_link(n(i), n(j));
    }
  }
  for (std::uint32_t k = 0; k < span; ++k) {
    const auto a = static_cast<std::uint32_t>(rng.uniform_int(0, span - 1));
    const auto b = static_cast<std::uint32_t>(rng.uniform_int(0, span - 1));
    if (a % components == b % components) t.add_link(n(a), n(b));
  }
  while (t.node_count() > size - 1) {
    t.remove_node(n(static_cast<std::uint32_t>(rng.uniform_int(0, span - 1))));
  }
  t.add_node(n(span + 3));
  return t;
}

TEST(Topology, AveragePathLengthEqualsAllPairsDistanceMean) {
  // Sizes straddle the 64-source batches of the bit-parallel BFS.
  for (const std::uint32_t size : {1u, 2u, 63u, 64u, 65u, 129u, 300u}) {
    for (const std::uint32_t components : {1u, 2u}) {
      for (const std::uint64_t seed : {11u, 12u}) {
        const Topology t = random_overlay(size, components, seed);
        ASSERT_EQ(t.node_count(), size);
        EXPECT_EQ(t.average_path_length(), reference_path_length(t))
            << "size " << size << ", components " << components << ", seed "
            << seed;
      }
    }
  }
}

TEST(Topology, AveragePathLengthSkipsUnreachablePairs) {
  // Two paths 0-1-2 and 10-11 plus an isolated 20: 6 + 2 ordered pairs,
  // distances 1,2,1,1,2,1 and 1,1 -> 10/8.
  Topology t;
  t.add_link(n(0), n(1));
  t.add_link(n(1), n(2));
  t.add_link(n(10), n(11));
  t.add_node(n(20));
  EXPECT_EQ(t.average_path_length(), 1.25);
}

TEST(Topology, NodesReturnsSortedIds) {
  Topology t;
  t.add_node(n(5));
  t.add_node(n(1));
  t.add_node(n(3));
  const auto ids = t.nodes();
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], n(1));
  EXPECT_EQ(ids[1], n(3));
  EXPECT_EQ(ids[2], n(5));
}

TEST(Topology, LinkCountTracksMutations) {
  Topology t;
  for (std::uint32_t i = 0; i < 10; ++i) t.add_link(n(i), n(i + 1));
  EXPECT_EQ(t.link_count(), 10u);
  t.remove_link(n(3), n(4));
  EXPECT_EQ(t.link_count(), 9u);
  t.remove_node(n(0));
  EXPECT_EQ(t.link_count(), 8u);
  EXPECT_NEAR(t.average_degree(), 2.0 * 8 / 10, 1e-9);
}

}  // namespace
}  // namespace aria::overlay
