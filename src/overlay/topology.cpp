#include "overlay/topology.hpp"

#include <algorithm>
#include <bit>

namespace aria::overlay {

const std::vector<NodeId> Topology::kEmpty{};

void Topology::add_node(NodeId n) {
  if (!n.valid() || has_node(n)) return;
  if (n.index() >= present_.size()) {
    present_.resize(n.index() + 1, 0);
    adj_.resize(n.index() + 1);
  }
  present_[n.index()] = 1;
  ++node_count_;
}

void Topology::remove_node(NodeId n) {
  if (!has_node(n)) return;
  for (NodeId m : adj_[n.index()]) {
    auto& back = adj_[m.index()];
    back.erase(std::remove(back.begin(), back.end(), n), back.end());
    --links_;
  }
  adj_[n.index()].clear();
  adj_[n.index()].shrink_to_fit();
  present_[n.index()] = 0;
  --node_count_;
}

bool Topology::add_link(NodeId a, NodeId b) {
  if (a == b || !a.valid() || !b.valid()) return false;
  add_node(a);
  add_node(b);
  auto& na = adj_[a.index()];
  if (std::find(na.begin(), na.end(), b) != na.end()) return false;
  na.push_back(b);
  adj_[b.index()].push_back(a);
  ++links_;
  return true;
}

bool Topology::remove_link(NodeId a, NodeId b) {
  if (!has_node(a) || !has_node(b)) return false;
  auto& na = adj_[a.index()];
  auto pa = std::find(na.begin(), na.end(), b);
  if (pa == na.end()) return false;
  na.erase(pa);
  auto& nb = adj_[b.index()];
  nb.erase(std::remove(nb.begin(), nb.end(), a), nb.end());
  --links_;
  return true;
}

bool Topology::has_link(NodeId a, NodeId b) const {
  if (!has_node(a)) return false;
  const auto& na = adj_[a.index()];
  return std::find(na.begin(), na.end(), b) != na.end();
}

double Topology::average_degree() const {
  if (node_count_ == 0) return 0.0;
  return 2.0 * static_cast<double>(links_) / static_cast<double>(node_count_);
}

std::vector<NodeId> Topology::nodes() const {
  std::vector<NodeId> out;
  out.reserve(node_count_);
  for (std::size_t i = 0; i < present_.size(); ++i) {
    if (present_[i]) out.push_back(NodeId{static_cast<std::uint32_t>(i)});
  }
  return out;
}

std::optional<std::size_t> Topology::bfs(NodeId a, NodeId b, NodeId skip_x,
                                         NodeId skip_y) const {
  if (!has_node(a) || !has_node(b)) return std::nullopt;
  if (a == b) return 0;
  std::vector<std::uint32_t> dist(present_.size(), kUnvisited);
  dist[a.index()] = 0;
  std::vector<NodeId> queue{a};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t du = dist[u.index()];
    for (NodeId v : adj_[u.index()]) {
      if ((u == skip_x && v == skip_y) || (u == skip_y && v == skip_x)) continue;
      if (dist[v.index()] != kUnvisited) continue;
      if (v == b) return du + 1;
      dist[v.index()] = du + 1;
      queue.push_back(v);
    }
  }
  return std::nullopt;
}

void Topology::bfs_all(NodeId src, std::vector<std::uint32_t>& dist,
                       std::vector<NodeId>& queue) const {
  dist.assign(present_.size(), kUnvisited);
  queue.clear();
  dist[src.index()] = 0;
  queue.push_back(src);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const std::uint32_t du = dist[u.index()];
    for (NodeId v : adj_[u.index()]) {
      if (dist[v.index()] != kUnvisited) continue;
      dist[v.index()] = du + 1;
      queue.push_back(v);
    }
  }
}

std::optional<std::size_t> Topology::distance(NodeId a, NodeId b) const {
  return bfs(a, b, kInvalidNode, kInvalidNode);
}

std::optional<std::size_t> Topology::distance_without_link(NodeId a, NodeId b,
                                                           NodeId x,
                                                           NodeId y) const {
  return bfs(a, b, x, y);
}

bool Topology::connected() const {
  if (node_count_ <= 1) return true;
  NodeId start = kInvalidNode;
  for (std::size_t i = 0; i < present_.size(); ++i) {
    if (present_[i]) {
      start = NodeId{static_cast<std::uint32_t>(i)};
      break;
    }
  }
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  bfs_all(start, dist, queue);
  return queue.size() == node_count_;
}

bool Topology::connected_among(
    const std::function<bool(NodeId)>& alive) const {
  std::size_t alive_count = 0;
  NodeId start = kInvalidNode;
  for (std::size_t i = 0; i < present_.size(); ++i) {
    if (!present_[i]) continue;
    const NodeId n{static_cast<std::uint32_t>(i)};
    if (!alive(n)) continue;
    ++alive_count;
    if (!start.valid()) start = n;
  }
  if (alive_count <= 1) return true;
  std::vector<std::uint32_t> dist(present_.size(), kUnvisited);
  dist[start.index()] = 0;
  std::vector<NodeId> queue{start};
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    for (NodeId v : adj_[u.index()]) {
      if (!alive(v)) continue;
      if (dist[v.index()] != kUnvisited) continue;
      dist[v.index()] = dist[u.index()] + 1;
      queue.push_back(v);
    }
  }
  return queue.size() == alive_count;
}

double Topology::average_path_length() const {
  if (node_count_ < 2) return 0.0;
  // Relabel the present nodes in BFS order, one BFS per component, into a
  // compact CSR. Neighbours get nearby labels, so each run of 64 labels is
  // a tight cluster of sources whose distances to any node differ by little.
  std::vector<std::uint32_t> label(present_.size(), kUnvisited);
  std::vector<NodeId> order;
  order.reserve(node_count_);
  for (std::size_t i = 0; i < present_.size(); ++i) {
    if (!present_[i] || label[i] != kUnvisited) continue;
    label[i] = static_cast<std::uint32_t>(order.size());
    order.push_back(NodeId{static_cast<std::uint32_t>(i)});
    for (std::size_t head = order.size() - 1; head < order.size(); ++head) {
      for (NodeId v : adj_[order[head].index()]) {
        if (label[v.index()] != kUnvisited) continue;
        label[v.index()] = static_cast<std::uint32_t>(order.size());
        order.push_back(v);
      }
    }
  }
  const auto n = static_cast<std::uint32_t>(order.size());
  std::vector<std::uint32_t> offset(n + 1, 0);
  std::vector<std::uint32_t> nbr;
  nbr.reserve(2 * links_);
  for (std::uint32_t u = 0; u < n; ++u) {
    for (NodeId v : adj_[order[u].index()]) nbr.push_back(label[v.index()]);
    offset[u + 1] = static_cast<std::uint32_t>(nbr.size());
  }

  // Bit-parallel BFS: one pass runs 64 sources at once, bit j of a node's
  // masks standing for source base + j. A node's next-level bits are the
  // union of its neighbours' frontier bits it has not seen yet, and each
  // newly reached (source, node) pair adds its level to an integer total,
  // so the mean is exactly the one a BFS per source computes, whatever the
  // labels. Only nodes that can gain are scanned: a node joins the scan
  // list once a neighbour is first reached, and leaves it one level after
  // it has seen every source of the pass (its last frontier bits read).
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  std::vector<std::uint64_t> seen(n, 0);
  std::vector<std::uint64_t> frontier(n, 0);
  std::vector<std::uint64_t> next(n, 0);
  std::vector<std::uint8_t> listed(n, 0);
  std::vector<std::uint32_t> scan;
  std::vector<std::uint32_t> woken;
  const auto wake_neighbours = [&](std::uint32_t u) {
    for (std::uint32_t e = offset[u]; e < offset[u + 1]; ++e) {
      const std::uint32_t v = nbr[e];
      if (listed[v] != 0) continue;
      listed[v] = 1;
      woken.push_back(v);
    }
  };
  for (std::uint32_t base = 0; base < n; base += 64) {
    const std::uint32_t width = std::min<std::uint32_t>(64, n - base);
    const std::uint64_t all = width == 64 ? ~0ull : (1ull << width) - 1;
    std::fill(seen.begin(), seen.end(), 0);
    std::fill(listed.begin(), listed.end(), 0);
    scan.clear();
    for (std::uint32_t j = 0; j < width; ++j) {
      seen[base + j] = frontier[base + j] = 1ull << j;
      listed[base + j] = 1;
      woken.push_back(base + j);
    }
    for (std::uint32_t j = 0; j < width; ++j) wake_neighbours(base + j);
    for (std::uint64_t level = 1;; ++level) {
      scan.insert(scan.end(), woken.begin(), woken.end());
      woken.clear();
      std::uint64_t reached = 0;
      for (const std::uint32_t v : scan) {
        const std::uint64_t unseen = all & ~seen[v];
        std::uint64_t bits = 0;
        if (unseen != 0) {
          for (std::uint32_t e = offset[v]; e < offset[v + 1]; ++e) {
            bits |= frontier[nbr[e]];
          }
          bits &= unseen;
          if (bits != 0) {
            seen[v] |= bits;
            reached += static_cast<std::uint64_t>(std::popcount(bits));
          }
        }
        next[v] = bits;
      }
      if (reached == 0) break;
      total += reached * level;
      pairs += reached;
      std::size_t kept = 0;
      for (const std::uint32_t v : scan) {
        const std::uint64_t bits = next[v];
        frontier[v] = bits;
        if (bits != 0 && seen[v] == bits) wake_neighbours(v);  // first reach
        if (bits != 0 || seen[v] != all) scan[kept++] = v;
      }
      scan.resize(kept);
    }
    for (const std::uint32_t v : scan) frontier[v] = 0;
  }
  if (pairs == 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(pairs);
}

}  // namespace aria::overlay
