// Region model for the hierarchical discovery plane (docs/hierarchy.md).
//
// The overlay is partitioned into `region_count` regions by a stateless
// function of the node id: region(n) = n mod R. Every node can compute any
// node's region — and the aggregator candidates of any region — from the
// (R, standby) pair in its config alone, with no membership protocol, no
// state to gossip and nothing to disagree about. Newly joined nodes land in
// a region by construction.
//
// Aggregator super-peers are *designated*, not voted on: the `standby`
// lowest ids of a region (r, r+R, r+2R, ...) are its candidate list, rank 0
// the primary. Election-by-designation makes failover a pure function of
// the retry attempt number (callers rotate through ranks), so an aggregator
// crash needs no liveness tracking — the next attempt simply addresses the
// next rank, and region-local flooding remains as the fallback of last
// resort (see AriaNode::decide_assignment).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"

namespace aria::overlay {

/// Region of node `n` under an R-way partition (R >= 1).
constexpr std::uint32_t region_of(NodeId n, std::size_t region_count) {
  return region_count <= 1
             ? 0u
             : n.value() % static_cast<std::uint32_t>(region_count);
}

/// k-th aggregator candidate of `region` (rank 0 = primary). With the mod-R
/// partition the k-th lowest id of region r is simply r + k*R.
constexpr NodeId aggregator_candidate(std::uint32_t region,
                                      std::size_t region_count,
                                      std::size_t rank) {
  return NodeId{region + static_cast<std::uint32_t>(rank * region_count)};
}

/// The full candidate list of `region` (standby entries, rank order).
std::vector<NodeId> aggregator_candidates(std::uint32_t region,
                                          std::size_t region_count,
                                          std::size_t standby);

/// Is `n` an aggregator candidate of its own region?
constexpr bool is_aggregator_candidate(NodeId n, std::size_t region_count,
                                       std::size_t standby) {
  return n.value() < region_count * standby;
}

/// Resolves the region count for `node_count` nodes: an explicit `requested`
/// wins; 0 means auto-size to ~`target_region_size` nodes per region. Either
/// way the result is clamped so every region can seat its full candidate
/// list (R * standby <= node_count) and at least one region exists.
std::size_t resolve_region_count(std::size_t requested, std::size_t node_count,
                                 std::size_t target_region_size,
                                 std::size_t standby);

/// One member's load report, as carried by REGION_LOAD (the digest input).
struct MemberLoad {
  bool idle{false};
  double backlog_seconds{0.0};
  std::uint32_t queue_len{0};
};

/// Summarized per-region load, as carried by REGION_DIGEST. `members` counts
/// the reports aggregated in (a liveness proxy: crashed members stop
/// reporting and age out of the table).
struct RegionDigest {
  std::uint32_t region{0};
  std::uint64_t epoch{0};
  std::uint32_t members{0};
  std::uint32_t idle{0};
  double backlog_seconds{0.0};
  std::uint32_t queue_len{0};
};

/// Folds member reports into a digest. Pure: totals are exactly the sums of
/// the inputs (the conservation property region_test.cpp pins).
RegionDigest aggregate_loads(std::uint32_t region, std::uint64_t epoch,
                             const std::vector<MemberLoad>& loads);

/// Exact member count of `region` when `node_count` nodes are split by the
/// region_of partition (n mod R): node_count / R, plus one for the low
/// regions. 0 when `region_count` is 0.
constexpr std::size_t region_population(std::size_t node_count,
                                        std::size_t region_count,
                                        std::uint32_t region) {
  if (region_count == 0) return 0;
  return node_count / region_count +
         (region < node_count % region_count ? 1 : 0);
}

/// The conservation laws a digest breaks. A digest is a sum of member
/// reports, so it names a region of the partition, claims no more members
/// than that region holds, no more idle machines than members, and no
/// negative backlog. One rule for the defense plane's clamp and the audit
/// plane's wire check (docs/adversary.md, docs/audit.md).
struct DigestBreaches {
  bool bad_region{false};        // region outside [0, R)
  bool overcount{false};         // members > region population
  bool idle_overcount{false};    // idle > members
  bool negative_backlog{false};  // backlog_seconds < 0

  bool any() const {
    return bad_region || overcount || idle_overcount || negative_backlog;
  }
};

/// Checks `digest` against a grid of at most `node_count` nodes split into
/// `region_count` regions. A zero size means unknown and skips the bound it
/// feeds; the population bound also needs the region in range.
DigestBreaches conservation_breaches(const RegionDigest& digest,
                                     std::size_t region_count,
                                     std::size_t node_count);

}  // namespace aria::overlay
