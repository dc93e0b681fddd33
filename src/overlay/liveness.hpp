// Per-node overlay liveness state (the self-healing plane's local view).
//
// The paper's overlay keeps working while nodes come and go because every
// node maintains only *local* knowledge about its neighbors. NeighborView is
// that knowledge: for each overlay neighbor a small state machine
//
//   live --(kSuspectAfter missed probes)--> suspected
//   suspected --(kEvictAfter missed probes)--> evicted
//   suspected --(PONG arrives)--> live            [counted: false suspicion]
//   evicted --(link re-established)--> live
//
// driven entirely by PING/PONG probes travelling over the simulated network
// (so loss, spikes, partitions and crashes all distort it exactly as they
// would in a deployment). A bounded cache of candidate contacts — learned
// from the live-neighbor samples piggybacked on PONG and LINK_ACK messages —
// feeds the repair path when eviction pushes the live degree below the
// floor.
//
// Determinism contract: all containers iterate in NodeId order and nothing
// here draws randomness, so probe rounds are bit-reproducible. See
// docs/overlay.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "common/counters.hpp"
#include "common/ids.hpp"
#include "common/time.hpp"

namespace aria::overlay {

/// The self-healing plane: off unless `enabled`. It detects a crashed
/// neighbor after kEvictAfter * kProbePeriod (2 minutes) while tolerating
/// kSuspectAfter lost probe exchanges.
struct HealingParams {
  bool enabled{false};
  /// One probe round every period; each round pings every tracked neighbor.
  static constexpr Duration kProbePeriod = Duration::seconds(30);
  /// Consecutive unanswered probes before a neighbor is suspected.
  static constexpr std::size_t kSuspectAfter = 2;
  /// Consecutive unanswered probes before a neighbor is evicted from the
  /// flood/gossip target set (and its link dropped). Must be > kSuspectAfter.
  static constexpr std::size_t kEvictAfter = 4;
  /// Eviction below this live degree triggers repair from cached contacts
  /// (mirrors BlatantParams::min_degree, the paper's average degree).
  static constexpr std::size_t kDegreeFloor = 4;
  /// Live-neighbor sample carried on each PONG / LINK_ACK.
  static constexpr std::size_t kGossipContacts = 4;
  /// Bound on the learned-contact cache.
  static constexpr std::size_t kContactCache = 16;
  /// LINK_REQ attempts issued per probe round while below the floor.
  static constexpr std::size_t kRepairAttempts = 2;
};

enum class PeerState : std::uint8_t { kLive, kSuspected, kEvicted };

class NeighborView {
 public:
  /// Overlay-health counters, aggregated across nodes by the engine
  /// (fields: ARIA_HEALING_COUNTERS, common/counters.hpp).
  struct Stats {
    ARIA_HEALING_COUNTERS(ARIA_COUNTER_FIELD)
  };

  /// What one recorded miss did to a peer.
  enum class Transition { kNone, kSuspected, kEvicted };

  // --- membership -------------------------------------------------------
  /// Starts tracking `peer` as live (revives suspected/evicted entries and
  /// clears their miss history). Idempotent for already-live peers.
  void track(NodeId peer);

  /// Forgets `peer` entirely (link no longer exists).
  void untrack(NodeId peer);

  bool tracked(NodeId peer) const;
  PeerState state(NodeId peer) const;  // kEvicted for unknown peers

  /// Every tracked peer regardless of state, in NodeId order (the probe
  /// loop's iteration set).
  std::vector<NodeId> tracked_peers() const;

  /// Tracked peers that still belong in the flood/gossip target set (live +
  /// suspected; suspected peers keep receiving traffic until evicted), in
  /// NodeId order.
  std::vector<NodeId> targets() const;

  /// Live (unsuspected) tracked peers, in NodeId order.
  std::vector<NodeId> live_neighbors() const;
  std::size_t live_degree() const;
  std::size_t tracked_count() const { return peers_.size(); }

  // --- probe bookkeeping ------------------------------------------------
  /// Records that a probe with `seq` is outstanding for `peer`.
  void probe_sent(NodeId peer, std::uint32_t seq);

  /// True when `peer` has an unanswered probe outstanding.
  bool outstanding(NodeId peer) const;

  /// A probe round passed without an answer: bumps the miss counter and
  /// applies the suspect/evict thresholds. Returns what changed. On
  /// kEvicted the peer is *kept* (state kEvicted) so callers can observe
  /// it; they normally untrack() it right after dropping the link.
  Transition record_miss(NodeId peer);

  /// A PONG for probe `seq` arrived; stale sequence numbers are ignored.
  /// Clears the miss counter; a suspected peer returns to live and counts
  /// as a false suspicion.
  void pong_received(NodeId peer, std::uint32_t seq);

  // --- contact cache ----------------------------------------------------
  /// Remembers `contact` as a repair candidate (FIFO, bounded by
  /// HealingParams::kContactCache, deduped; tracked peers and `self` are
  /// never cached).
  void learn_contact(NodeId contact, NodeId self);

  /// Pops the oldest cached contact not currently tracked; kInvalidNode
  /// when the cache is exhausted.
  NodeId take_contact();

  const std::vector<NodeId>& contacts() const { return contacts_; }

  /// Drops volatile state (a crash wipes the view; the node's remembered
  /// bootstrap contacts live elsewhere, modelling stable storage).
  void clear();

  Stats& stats() { return stats_; }
  const Stats& stats() const { return stats_; }

 private:
  struct Peer {
    PeerState state{PeerState::kLive};
    std::size_t missed{0};
    bool outstanding{false};
    std::uint32_t probe_seq{0};
  };

  std::map<NodeId, Peer> peers_;   // ordered: deterministic probe order
  std::vector<NodeId> contacts_;   // FIFO insertion order, bounded
  Stats stats_;
};

}  // namespace aria::overlay
