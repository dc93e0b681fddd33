// Selective-flooding support (paper §III-B/D and [28]).
//
// REQUEST and INFORM messages travel by bounded flooding: every hop picks at
// most `fanout` random neighbors (excluding where the message came from) and
// each node relays a given flood instance at most once. FloodRelay provides
// the two pieces of per-node state/logic that implement this: duplicate
// suppression keyed by flood id, and randomized target selection.
//
// Dedup state is bounded by one expiry: a TTL sweep reclaims every entry
// kTtl after the flood was first seen, which is long after any flood can
// still be in flight. The sweep is keyed purely on sim time passed into
// mark_seen, so it schedules no events, draws no randomness and stays
// deterministic.
#pragma once

#include <cstddef>
#include <deque>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/uuid.hpp"
#include "overlay/topology.hpp"

namespace aria::overlay {

class FloodRelay {
 public:
  FloodRelay(const Topology& topo, Rng rng) : topo_{&topo}, node_rng_{rng} {}

  /// Records that `node` has seen flood `id` at sim time `now`. Returns true
  /// the first time (i.e., the node should process/relay), false on
  /// duplicates. Also sweeps entries whose TTL expired before `now`.
  bool mark_seen(NodeId node, const Uuid& id,
                 TimePoint now = TimePoint::origin());

  bool has_seen(NodeId node, const Uuid& id) const;

  /// Picks up to `fanout` distinct random neighbors of `node`, never
  /// `exclude_a`/`exclude_b` (typically the previous hop and the flood
  /// originator).
  std::vector<NodeId> pick_targets(NodeId node, std::size_t fanout,
                                   NodeId exclude_a = kInvalidNode,
                                   NodeId exclude_b = kInvalidNode);

  /// Region-scoped variant (hierarchical plane, docs/hierarchy.md): same
  /// contract, but only neighbors in `region` under an R-way mod partition
  /// are candidates — a flood relayed through this picker can never leak
  /// across a region boundary. Draws from the same per-node stream as
  /// pick_targets; with the hierarchy plane off this is never called, so
  /// flat runs see identical draw sequences.
  std::vector<NodeId> pick_targets_in_region(NodeId node, std::size_t fanout,
                                             std::size_t region_count,
                                             std::uint32_t region,
                                             NodeId exclude_a = kInvalidNode,
                                             NodeId exclude_b = kInvalidNode);

  /// How long a flood's dedup entry lives after its first sighting (memory
  /// bound; must exceed hops * max latency).
  static constexpr Duration kTtl = Duration::seconds(60);

  /// Drops dedup state for a finished flood now, ahead of the sweep.
  void forget(const Uuid& id) { seen_.erase(id); }

  std::size_t tracked_floods() const { return seen_.size(); }

 private:
  /// One flood's dedup state: bit i is set once node i has seen it; the
  /// bitset grows to the highest id that saw the flood.
  struct Entry {
    std::vector<bool> nodes;
    TimePoint first_seen{TimePoint::origin()};
  };

  void sweep(TimePoint now);

  /// Target picks draw from a per-relaying-node stream (the constructor's
  /// rng forked on the node id) — the PDES determinism-contract rule
  /// (docs/pdes.md): each node's pick sequence must depend only on its own
  /// relay order, which is identical under sequential and sharded execution.
  Rng& pick_rng(NodeId node) { return node_rng_.at(node.value()); }

  const Topology* topo_;
  ForkTable node_rng_;
  std::unordered_map<Uuid, Entry> seen_;
  // (first_seen, id) in insertion order; a stale record whose first_seen no
  // longer matches the live entry (the flood was forgotten and re-created)
  // is skipped — the re-creation enqueued its own record.
  std::deque<std::pair<TimePoint, Uuid>> expiry_;
};

}  // namespace aria::overlay
