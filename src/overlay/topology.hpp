// Undirected overlay topology.
//
// In a deployment every node stores only its own neighbor set; the
// simulation keeps the union of those sets in one structure — the two views
// are equivalent because protocol code only ever reads `neighbors(self)`.
//
// Storage is structure-of-arrays, indexed by the dense NodeId value: one
// flat presence bitmap plus one neighbor vector per id slot. Compared to
// the former unordered_map<NodeId, vector> this removes a hash probe from
// every neighbors() call (the hottest overlay read — every flood hop makes
// one) and lets the BFS helpers use flat distance arrays instead of hash
// maps, which is what keeps 10k+-node overlays (docs/hierarchy.md)
// tractable. Results are unchanged: the map's iteration order never leaked
// into any output (nodes() sorted, connectivity/path metrics are
// order-independent) and per-slot neighbor order is append order, exactly
// as before.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/ids.hpp"

namespace aria::overlay {

class Topology {
 public:
  /// Adds an isolated node; no-op if present.
  void add_node(NodeId n);

  /// Removes a node and all incident links; no-op if absent.
  void remove_node(NodeId n);

  bool has_node(NodeId n) const {
    return n.valid() && n.index() < present_.size() && present_[n.index()];
  }

  /// Adds an undirected link; inserts missing endpoints. Returns false if
  /// the link already existed or a == b.
  bool add_link(NodeId a, NodeId b);

  /// Removes an undirected link; returns false if it did not exist.
  bool remove_link(NodeId a, NodeId b);

  bool has_link(NodeId a, NodeId b) const;

  /// Neighbor list of `n` (empty for unknown nodes). The reference is
  /// invalidated by any mutation.
  const std::vector<NodeId>& neighbors(NodeId n) const {
    return has_node(n) ? adj_[n.index()] : kEmpty;
  }

  std::size_t degree(NodeId n) const { return neighbors(n).size(); }
  std::size_t node_count() const { return node_count_; }
  std::size_t link_count() const { return links_; }
  double average_degree() const;

  /// All nodes in ascending id order.
  std::vector<NodeId> nodes() const;

  /// BFS hop distance; nullopt if unreachable or either node is unknown.
  std::optional<std::size_t> distance(NodeId a, NodeId b) const;

  /// BFS distance with one link (x, y) treated as absent — used by the
  /// maintenance layer to test whether a link is safely removable.
  std::optional<std::size_t> distance_without_link(NodeId a, NodeId b, NodeId x,
                                                   NodeId y) const;

  /// True when every node can reach every other (vacuously true when empty).
  bool connected() const;

  /// Connectivity of the subgraph induced by nodes where `alive` is true:
  /// every alive node can reach every other through alive nodes only
  /// (vacuously true for fewer than two alive nodes). Used by the healing
  /// plane's metrics and tests to ask whether the *live* grid reconverged
  /// after churn.
  bool connected_among(const std::function<bool(NodeId)>& alive) const;

  /// Exact mean shortest-path length over all reachable ordered pairs;
  /// 0 for fewer than two nodes. Bit-parallel: each pass runs a BFS from
  /// 64 sources at once over one 64-bit seen mask and one frontier mask
  /// per node, summing popcount x level into an integer total, so the
  /// result equals the per-source BFS mean bit for bit in about 1/64 of
  /// the passes (the harvest's all-pairs cost on 4k+-node grids).
  double average_path_length() const;

 private:
  static constexpr std::uint32_t kUnvisited = UINT32_MAX;

  std::optional<std::size_t> bfs(NodeId a, NodeId b, NodeId skip_x,
                                 NodeId skip_y) const;
  /// Single-source BFS into a reusable flat distance array (kUnvisited =
  /// unreached); returns the visit queue (every reached node, BFS order).
  /// connected() uses it; the all-pairs mean has its own batched BFS.
  void bfs_all(NodeId src, std::vector<std::uint32_t>& dist,
               std::vector<NodeId>& queue) const;

  std::vector<std::vector<NodeId>> adj_;  // slot per id value
  std::vector<std::uint8_t> present_;     // slot occupancy
  std::size_t node_count_{0};
  std::size_t links_{0};
  static const std::vector<NodeId> kEmpty;
};

}  // namespace aria::overlay
