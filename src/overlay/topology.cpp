#include "overlay/topology.hpp"

#include <algorithm>

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
  std::uint64_t total = 0;
  std::uint64_t pairs = 0;
  std::vector<std::uint32_t> dist;
  std::vector<NodeId> queue;
  for (std::size_t i = 0; i < present_.size(); ++i) {
    if (!present_[i]) continue;
    bfs_all(NodeId{static_cast<std::uint32_t>(i)}, dist, queue);
    for (NodeId v : queue) {
      total += dist[v.index()];
    }
    pairs += queue.size() - 1;  // exclude the source itself
  }
  if (pairs == 0) return 0.0;
  return static_cast<double>(total) / static_cast<double>(pairs);
}

}  // namespace aria::overlay
