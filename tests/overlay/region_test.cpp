// Region model of the hierarchical discovery plane (docs/hierarchy.md).
// Everything here is stateless arithmetic shared by every node — the
// partition, the designated aggregator candidates, the auto-sizing rule and
// the digest fold — so these tests pin the algebraic properties the
// protocol relies on: the partition covers and is disjoint, candidate lists
// are in-region and collision-free across regions, and digest totals are
// exactly conserved sums of the member reports.
#include "overlay/region.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "overlay/bootstrap.hpp"

namespace aria::overlay {
namespace {

// ---------------------------------------------------------------------------
// Partition: region_of
// ---------------------------------------------------------------------------

TEST(Region, PartitionCoversAndIsDisjoint) {
  // Every node lands in exactly one region in [0, R); every region is hit.
  const std::size_t R = 7;
  std::vector<std::size_t> sizes(R, 0);
  for (std::uint32_t n = 0; n < 700; ++n) {
    const std::uint32_t r = region_of(NodeId{n}, R);
    ASSERT_LT(r, R);
    ++sizes[r];
  }
  for (std::size_t r = 0; r < R; ++r) {
    EXPECT_EQ(sizes[r], 100u) << "mod-R partition must be balanced when R "
                                 "divides the node count";
    EXPECT_EQ(region_population(700, R, static_cast<std::uint32_t>(r)), 100u);
  }
  // When R does not divide the node count, the low regions hold one more.
  std::vector<std::size_t> uneven(R, 0);
  for (std::uint32_t n = 0; n < 703; ++n) ++uneven[region_of(NodeId{n}, R)];
  for (std::uint32_t r = 0; r < R; ++r) {
    EXPECT_EQ(region_population(703, R, r), uneven[r]) << r;
  }
  EXPECT_EQ(region_population(703, 0, 0), 0u);
}

TEST(Region, DegenerateRegionCountsCollapseToOneRegion) {
  EXPECT_EQ(region_of(NodeId{41}, 0), 0u);
  EXPECT_EQ(region_of(NodeId{41}, 1), 0u);
}

// ---------------------------------------------------------------------------
// Aggregator designation
// ---------------------------------------------------------------------------

TEST(Region, CandidatesLiveInTheirOwnRegion) {
  const std::size_t R = 5, standby = 3;
  for (std::uint32_t r = 0; r < R; ++r) {
    for (std::size_t rank = 0; rank < standby; ++rank) {
      const NodeId c = aggregator_candidate(r, R, rank);
      EXPECT_EQ(region_of(c, R), r);
    }
  }
}

TEST(Region, CandidateListsAreUniqueAcrossRegions) {
  // No node can be a candidate of two regions, and ranks never collide:
  // R * standby designations name R * standby distinct nodes.
  const std::size_t R = 6, standby = 2;
  std::set<NodeId> seen;
  for (std::uint32_t r = 0; r < R; ++r) {
    const std::vector<NodeId> cands = aggregator_candidates(r, R, standby);
    ASSERT_EQ(cands.size(), standby);
    for (NodeId c : cands) {
      EXPECT_TRUE(seen.insert(c).second)
          << "duplicate candidate " << c.to_string();
      EXPECT_TRUE(is_aggregator_candidate(c, R, standby));
    }
  }
  EXPECT_EQ(seen.size(), R * standby);
}

TEST(Region, NonCandidatesAreRecognized) {
  const std::size_t R = 4, standby = 2;
  // Ids >= R * standby are plain members.
  EXPECT_FALSE(is_aggregator_candidate(NodeId{8}, R, standby));
  EXPECT_FALSE(is_aggregator_candidate(NodeId{100}, R, standby));
  EXPECT_TRUE(is_aggregator_candidate(NodeId{7}, R, standby));
}

// ---------------------------------------------------------------------------
// Auto-sizing
// ---------------------------------------------------------------------------

TEST(Region, ResolveHonorsExplicitRequest) {
  EXPECT_EQ(resolve_region_count(8, 1000, 128, 2), 8u);
}

TEST(Region, ResolveAutoSizesToTargetRegionSize) {
  // 1000 nodes at ~128/region -> 8 regions (rounded to nearest).
  const std::size_t r = resolve_region_count(0, 1000, 128, 2);
  EXPECT_GE(r, 7u);
  EXPECT_LE(r, 8u);
}

TEST(Region, ResolveClampsSoCandidateListsFit) {
  // Every region must seat its full standby list: R * standby <= nodes.
  const std::size_t standby = 2;
  for (std::size_t nodes : {1u, 2u, 3u, 10u, 17u}) {
    const std::size_t r = resolve_region_count(1000, nodes, 128, standby);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r * standby, std::max<std::size_t>(nodes, standby));
  }
}

TEST(Region, ResolveNeverReturnsZero) {
  EXPECT_GE(resolve_region_count(0, 0, 128, 2), 1u);
  EXPECT_GE(resolve_region_count(0, 1, 128, 2), 1u);
}

// ---------------------------------------------------------------------------
// Digest fold: conservation
// ---------------------------------------------------------------------------

TEST(Region, AggregateLoadsConservesTotals) {
  // The digest is a pure fold: member counts, idle counts, backlog seconds
  // and queue lengths are exactly the sums of the inputs. Delegation
  // decisions steer by these totals, so any drift here silently re-routes
  // jobs.
  std::vector<MemberLoad> loads;
  double backlog = 0.0;
  std::uint32_t queued = 0, idle = 0;
  for (int i = 0; i < 57; ++i) {
    MemberLoad m;
    m.idle = (i % 3 == 0);
    m.backlog_seconds = 10.5 * i;
    m.queue_len = static_cast<std::uint32_t>(i % 5);
    backlog += m.backlog_seconds;
    queued += m.queue_len;
    idle += m.idle ? 1 : 0;
    loads.push_back(m);
  }
  const RegionDigest d = aggregate_loads(3, 42, loads);
  EXPECT_EQ(d.region, 3u);
  EXPECT_EQ(d.epoch, 42u);
  EXPECT_EQ(d.members, 57u);
  EXPECT_EQ(d.idle, idle);
  EXPECT_EQ(d.queue_len, queued);
  EXPECT_DOUBLE_EQ(d.backlog_seconds, backlog);

  // A fold of real reports breaks no conservation law (57 members fit
  // region 3 of R = 4 on a 228-node grid); tampering with one field breaks
  // exactly the law that field feeds.
  EXPECT_FALSE(conservation_breaches(d, 4, 228).any());
  RegionDigest lie = d;
  lie.members = 58;
  EXPECT_TRUE(conservation_breaches(lie, 4, 228).overcount);
  EXPECT_FALSE(conservation_breaches(lie, 4, 0).any());  // size unknown
  lie = d;
  lie.region = 4;
  const DigestBreaches out_of_range = conservation_breaches(lie, 4, 228);
  EXPECT_TRUE(out_of_range.bad_region);
  EXPECT_FALSE(out_of_range.overcount);  // no population outside [0, R)
  EXPECT_FALSE(conservation_breaches(lie, 0, 228).any());  // R unknown
  lie = d;
  lie.idle = lie.members + 1;
  EXPECT_TRUE(conservation_breaches(lie, 4, 228).idle_overcount);
  lie = d;
  lie.backlog_seconds = -1.0;
  EXPECT_TRUE(conservation_breaches(lie, 4, 228).negative_backlog);
}

TEST(Region, AggregateOfNothingIsEmpty) {
  const RegionDigest d = aggregate_loads(1, 7, {});
  EXPECT_EQ(d.members, 0u);
  EXPECT_EQ(d.idle, 0u);
  EXPECT_EQ(d.queue_len, 0u);
  EXPECT_DOUBLE_EQ(d.backlog_seconds, 0.0);
}

// ---------------------------------------------------------------------------
// Hierarchical bootstrap
// ---------------------------------------------------------------------------

TEST(Region, HierarchicalBootstrapConnectsEveryRegionInternally) {
  // Region-scoped floods only traverse intra-region links, so each region's
  // induced subgraph must be connected on its own — global connectivity is
  // not enough.
  Rng rng{11};
  const std::size_t R = 6;
  const Topology t = bootstrap_hierarchical(600, R, 4.0, 2, rng);
  EXPECT_EQ(t.node_count(), 600u);
  EXPECT_TRUE(t.connected());
  for (NodeId n : t.nodes()) {
    const std::uint32_t r = region_of(n, R);
    bool has_intra = false;
    for (NodeId peer : t.neighbors(n)) {
      if (region_of(peer, R) == r) {
        has_intra = true;
        break;
      }
    }
    EXPECT_TRUE(has_intra) << n.to_string() << " has no intra-region link";
  }
}

TEST(Region, HierarchicalBootstrapIsDeterministic) {
  Rng r1{12}, r2{12};
  const Topology a = bootstrap_hierarchical(300, 4, 4.0, 2, r1);
  const Topology b = bootstrap_hierarchical(300, 4, 4.0, 2, r2);
  EXPECT_EQ(a.link_count(), b.link_count());
  for (NodeId n : a.nodes()) {
    EXPECT_EQ(a.degree(n), b.degree(n));
  }
}

TEST(Region, JoinNodeLandsInItsOwnRegion) {
  Rng rng{13};
  const std::size_t R = 4;
  Topology t = bootstrap_hierarchical(200, R, 4.0, 2, rng);
  const NodeId joiner{200};
  join_node_in_region(t, joiner, 3, R, rng);
  ASSERT_TRUE(t.has_node(joiner));
  ASSERT_GT(t.degree(joiner), 0u);
  for (NodeId peer : t.neighbors(joiner)) {
    EXPECT_EQ(region_of(peer, R), region_of(joiner, R))
        << "join contacts must come from the joiner's region";
  }
}

}  // namespace
}  // namespace aria::overlay
