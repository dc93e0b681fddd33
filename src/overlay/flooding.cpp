#include "overlay/flooding.hpp"

#include "overlay/region.hpp"

namespace aria::overlay {

bool FloodRelay::mark_seen(NodeId node, const Uuid& id, TimePoint now) {
  sweep(now);
  auto [it, inserted] = seen_.try_emplace(id);
  if (inserted) {
    it->second.first_seen = now;
    expiry_.emplace_back(now, id);
  }
  std::vector<bool>& seen = it->second.nodes;
  if (node.index() >= seen.size()) seen.resize(node.index() + 1);
  if (seen[node.index()]) return false;
  seen[node.index()] = true;
  return true;
}

bool FloodRelay::has_seen(NodeId node, const Uuid& id) const {
  const auto it = seen_.find(id);
  return it != seen_.end() && node.index() < it->second.nodes.size() &&
         it->second.nodes[node.index()];
}

void FloodRelay::sweep(TimePoint now) {
  while (!expiry_.empty() && expiry_.front().first + kTtl <= now) {
    const auto& [stamp, id] = expiry_.front();
    auto it = seen_.find(id);
    // Only reclaim the entry this record described; if the flood was
    // forgotten and later re-created, first_seen differs and the newer
    // record owns it.
    if (it != seen_.end() && it->second.first_seen == stamp) seen_.erase(it);
    expiry_.pop_front();
  }
}

std::vector<NodeId> FloodRelay::pick_targets(NodeId node, std::size_t fanout,
                                             NodeId exclude_a,
                                             NodeId exclude_b) {
  std::vector<NodeId> candidates;
  for (NodeId n : topo_->neighbors(node)) {
    if (n == exclude_a || n == exclude_b) continue;
    candidates.push_back(n);
  }
  if (candidates.size() <= fanout) return candidates;
  return pick_rng(node).sample(candidates, fanout);
}

std::vector<NodeId> FloodRelay::pick_targets_in_region(
    NodeId node, std::size_t fanout, std::size_t region_count,
    std::uint32_t region, NodeId exclude_a, NodeId exclude_b) {
  std::vector<NodeId> candidates;
  for (NodeId n : topo_->neighbors(node)) {
    if (n == exclude_a || n == exclude_b) continue;
    if (region_of(n, region_count) != region) continue;
    candidates.push_back(n);
  }
  if (candidates.size() <= fanout) return candidates;
  return pick_rng(node).sample(candidates, fanout);
}

}  // namespace aria::overlay
