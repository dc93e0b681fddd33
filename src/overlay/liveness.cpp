#include "overlay/liveness.hpp"

#include <algorithm>
#include <cassert>

namespace aria::overlay {

void NeighborView::track(NodeId peer) {
  assert(peer.valid());
  Peer& p = peers_[peer];
  p.state = PeerState::kLive;
  p.missed = 0;
  p.outstanding = false;
  // A revived peer is a neighbor again; it no longer belongs in the
  // candidate cache.
  contacts_.erase(std::remove(contacts_.begin(), contacts_.end(), peer),
                  contacts_.end());
}

void NeighborView::untrack(NodeId peer) { peers_.erase(peer); }

bool NeighborView::tracked(NodeId peer) const { return peers_.contains(peer); }

PeerState NeighborView::state(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it == peers_.end() ? PeerState::kEvicted : it->second.state;
}

std::vector<NodeId> NeighborView::tracked_peers() const {
  std::vector<NodeId> out;
  out.reserve(peers_.size());
  for (const auto& [id, _] : peers_) out.push_back(id);
  return out;
}

std::vector<NodeId> NeighborView::targets() const {
  std::vector<NodeId> out;
  out.reserve(peers_.size());
  for (const auto& [id, p] : peers_) {
    if (p.state != PeerState::kEvicted) out.push_back(id);
  }
  return out;
}

std::vector<NodeId> NeighborView::live_neighbors() const {
  std::vector<NodeId> out;
  out.reserve(peers_.size());
  for (const auto& [id, p] : peers_) {
    if (p.state == PeerState::kLive) out.push_back(id);
  }
  return out;
}

std::size_t NeighborView::live_degree() const {
  std::size_t n = 0;
  for (const auto& [id, p] : peers_) {
    if (p.state == PeerState::kLive) ++n;
  }
  return n;
}

void NeighborView::probe_sent(NodeId peer, std::uint32_t seq) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  it->second.outstanding = true;
  it->second.probe_seq = seq;
}

bool NeighborView::outstanding(NodeId peer) const {
  const auto it = peers_.find(peer);
  return it != peers_.end() && it->second.outstanding;
}

NeighborView::Transition NeighborView::record_miss(
    NodeId peer, const HealingParams& params) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return Transition::kNone;
  Peer& p = it->second;
  p.outstanding = false;
  ++p.missed;
  if (p.missed >= params.evict_after) {
    p.state = PeerState::kEvicted;
    ++stats_.neighbor_evictions;
    return Transition::kEvicted;
  }
  if (p.missed >= params.suspect_after && p.state == PeerState::kLive) {
    p.state = PeerState::kSuspected;
    return Transition::kSuspected;
  }
  return Transition::kNone;
}

void NeighborView::pong_received(NodeId peer, std::uint32_t seq) {
  const auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  Peer& p = it->second;
  // A straggler from an older round says nothing about the current probe.
  if (!p.outstanding || p.probe_seq != seq) return;
  p.outstanding = false;
  p.missed = 0;
  if (p.state == PeerState::kSuspected) {
    ++stats_.false_suspicions;
    p.state = PeerState::kLive;
  }
}

void NeighborView::learn_contact(NodeId contact, NodeId self,
                                 std::size_t cache_bound) {
  if (!contact.valid() || contact == self) return;
  if (peers_.contains(contact)) return;
  if (std::find(contacts_.begin(), contacts_.end(), contact) !=
      contacts_.end()) {
    return;
  }
  contacts_.push_back(contact);
  if (contacts_.size() > cache_bound) {
    contacts_.erase(contacts_.begin());  // FIFO: oldest knowledge goes first
  }
}

NodeId NeighborView::take_contact() {
  while (!contacts_.empty()) {
    const NodeId c = contacts_.front();
    contacts_.erase(contacts_.begin());
    if (!peers_.contains(c)) return c;
  }
  return kInvalidNode;
}

void NeighborView::clear() {
  peers_.clear();
  contacts_.clear();
}

}  // namespace aria::overlay
