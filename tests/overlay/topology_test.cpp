#include "overlay/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>

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
