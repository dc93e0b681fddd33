// Point-to-point message transport over the simulator.
//
// The network knows nothing about the overlay topology: any node may send to
// any address it has learned (the paper's overlay "enables communication
// between any pair of nodes"). Topology constraints — who forwards to whom —
// live in the protocol layer. Every send is metered in a TrafficLedger;
// messages to unregistered or down nodes are dropped and counted.
//
// An optional FaultPlane (see sim/fault.hpp) can be attached to inject
// loss, duplication and latency spikes per message; without one — or with
// one whose master switch is off — the send path is exactly the historic
// fault-free path, down to the RNG draws.
#pragma once

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/fault.hpp"
#include "sim/latency.hpp"
#include "sim/message_types.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"

namespace aria::sim {

/// Base class for everything that travels on the wire. `wire_size` feeds the
/// traffic ledger; `type_id` keys the per-type accounting (an interned
/// MessageTypeId — implementations register their name once, typically via
/// a function-local static, so the send path never builds a string).
class Message {
 public:
  virtual ~Message() = default;
  virtual std::size_t wire_size() const = 0;
  virtual MessageTypeId type_id() const = 0;

  /// Registered name of this type (report formatting only).
  const std::string& type_name() const {
    return MessageTypeRegistry::name(type_id());
  }

  /// Deep copy, used only by fault-plane duplication. The default makes a
  /// type non-clonable (never duplicated); copyable message types get a
  /// copy from MessageOf.
  virtual std::unique_ptr<Message> clone() const { return nullptr; }

  /// Remaining hop budget for flooded message types (REQUEST/INFORM);
  /// kNoHops for point-to-point messages. Lets a MessageTap record hop
  /// counts without downcasting per concrete type.
  static constexpr std::uint32_t kNoHops = UINT32_MAX;
  virtual std::uint32_t flood_hops_left() const { return kNoHops; }
};

/// CRTP base for a copyable wire type named `kName` and metered at `kBytes`:
/// supplies wire_size, type_id, static_type and clone, so a message type
/// declares only its fields. `kName` is interned on first use. A type whose
/// size depends on its payload overrides wire_size.
template <class Self, const char* const& kName, std::size_t kBytes>
class MessageOf : public Message {
 public:
  std::size_t wire_size() const override { return kBytes; }
  MessageTypeId type_id() const override { return static_type(); }
  std::unique_ptr<Message> clone() const override {
    return std::make_unique<Self>(static_cast<const Self&>(*this));
  }
  static MessageTypeId static_type() {
    static const MessageTypeId id = MessageTypeRegistry::intern(kName);
    return id;
  }
};

/// Observer of sends, for the trace, audit and journal planes. Attached like
/// the FaultPlane — a non-owning pointer the network never dereferences
/// unless set — so the sim layer needs no dependency on those libraries and
/// an unattached tap leaves the send path exactly as it was. Several
/// subscribers share the one slot through a TapList.
class MessageTap {
 public:
  virtual ~MessageTap() = default;

  /// One sampled send. `deliver` is the scheduled delivery instant (the
  /// latency draw happens at send time, so it is known here); for messages
  /// the fault plane dropped, `faulted` is true and `deliver == sent`.
  /// Must not send messages or mutate simulation state.
  virtual void on_message(NodeId from, NodeId to, const Message& message,
                          TimePoint sent, TimePoint deliver, bool faulted) = 0;
};

/// Flat fan-out of the wire stream to several taps. Each subscription
/// samples with its own counter in the Network's arithmetic (every Nth send
/// it sees, counted deterministically; 0 is treated as 1), so a subscriber
/// gets the same stream whoever else is subscribed. Install the list with
/// Network::set_tap(&list, 1) so it sees every send.
class TapList final : public MessageTap {
 public:
  /// Subscribes `tap` (non-owning; must outlive the list).
  void add(MessageTap* tap, std::uint64_t sample_every) {
    subs_.push_back({tap, sample_every == 0 ? 1 : sample_every, 0});
  }
  bool empty() const { return subs_.empty(); }

  void on_message(NodeId from, NodeId to, const Message& message,
                  TimePoint sent, TimePoint deliver, bool faulted) override {
    for (Subscription& s : subs_) {
      if (s.counter++ % s.every != 0) continue;
      s.tap->on_message(from, to, message, sent, deliver, faulted);
    }
  }

 private:
  struct Subscription {
    MessageTap* tap;
    std::uint64_t every;
    std::uint64_t counter;
  };
  std::vector<Subscription> subs_;
};

struct Envelope {
  NodeId from;
  NodeId to;
  std::unique_ptr<Message> message;
};

/// Cross-shard routing hook (sharded PDES executor, sim/pdes,
/// docs/pdes.md). When attached, a send whose destination is_remote() is
/// handed to forward() — stamped with its already-drawn delivery instant —
/// instead of being scheduled on the local simulator; the destination
/// shard's Network later injects it via deliver_remote(). Everything
/// sender-side (metering, fault verdict, latency draw, tap) has already
/// happened by the time forward() runs, so the split is invisible to both
/// endpoints.
class RemoteRoute {
 public:
  virtual ~RemoteRoute() = default;

  /// Does `to` live on another shard's network?
  virtual bool is_remote(NodeId to) const = 0;

  /// Hands off one message for delivery at `deliver_at` on the owning
  /// shard. Called at the sender's send instant, which the conservative
  /// protocol guarantees precedes `deliver_at` by at least the lookahead.
  /// `key` is the sender-side delivery ordering key (see
  /// Simulator::schedule_at_keyed); the receiving shard must schedule the
  /// delivery with it unchanged.
  virtual void forward(NodeId from, NodeId to, TimePoint deliver_at,
                       std::uint64_t key,
                       std::unique_ptr<Message> message) = 0;
};

class Network {
 public:
  using Handler = std::function<void(Envelope)>;

  Network(Simulator& sim, std::unique_ptr<LatencyModel> latency, Rng rng)
      : sim_{sim}, latency_{std::move(latency)}, base_rng_{rng} {
    assert(latency_);
  }

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Attaches a node; replaces any previous handler for the same id.
  void attach(NodeId node, Handler handler) {
    assert(node.valid() && handler);
    nodes_[node] = NodeState{std::move(handler), /*up=*/true};
  }

  void detach(NodeId node) { nodes_.erase(node); }

  /// Simulates a crash/recovery: down nodes silently drop incoming traffic.
  void set_up(NodeId node, bool up) {
    auto it = nodes_.find(node);
    if (it != nodes_.end()) it->second.up = up;
  }

  bool is_attached(NodeId node) const { return nodes_.contains(node); }
  bool is_up(NodeId node) const {
    auto it = nodes_.find(node);
    return it != nodes_.end() && it->second.up;
  }

  /// Sends `message` from `from` to `to`; delivery happens after the
  /// latency-model delay. The send is metered immediately (the bytes hit the
  /// wire even if the destination is down at delivery time).
  void send(NodeId from, NodeId to, std::unique_ptr<Message> message);

  /// Attaches a fault plane (non-owning; must outlive the network). Null or
  /// an inactive plane leaves the send path byte-identical to fault-free.
  void set_fault_plane(FaultPlane* plane) { faults_ = plane; }
  FaultPlane* fault_plane() const { return faults_; }

  /// The latency model driving delivery delays. The sharded executor reads
  /// min_latency() off it to derive the conservative lookahead.
  const LatencyModel& latency_model() const { return *latency_; }

  /// Folds another network's meters into this one: message counters, the
  /// region split, and the per-type traffic ledger. Used after a sharded
  /// run to merge the shard networks' accounting into the engine network so
  /// RunResult harvesting reads one place in both execution modes.
  void absorb_meters(const Network& other) {
    traffic_.merge(other.traffic_);
    sent_ += other.sent_;
    delivered_ += other.delivered_;
    dropped_ += other.dropped_;
    faulted_ += other.faulted_;
    duplicated_ += other.duplicated_;
    intra_region_messages_ += other.intra_region_messages_;
    cross_region_messages_ += other.cross_region_messages_;
    intra_region_bytes_ += other.intra_region_bytes_;
    cross_region_bytes_ += other.cross_region_bytes_;
  }

  /// Attaches the cross-shard route (non-owning; must outlive the network).
  /// Null (the default) keeps every delivery local — the plain path.
  void set_remote_route(RemoteRoute* route) { remote_ = route; }

  /// Recipient side of the remote route: accepts a message forwarded by a
  /// peer shard and schedules it at the stamped instant — under the
  /// sender-stamped ordering key — after which it runs the exact local
  /// delivery path (up-check, drop accounting, handler). Must be called
  /// before the local clock reaches `deliver_at` — the conservative window
  /// protocol guarantees this.
  void deliver_remote(NodeId from, NodeId to, TimePoint deliver_at,
                      std::uint64_t key, std::unique_ptr<Message> message);

  /// Attaches a message tap (non-owning; must outlive the network); the tap
  /// sees every `sample_every`-th send, counted deterministically — no RNG
  /// draws, so attaching a tap never perturbs the simulation. Null detaches.
  void set_tap(MessageTap* tap, std::uint64_t sample_every = 1) {
    tap_ = tap;
    tap_every_ = sample_every == 0 ? 1 : sample_every;
    tap_counter_ = 0;
  }
  MessageTap* tap() const { return tap_; }

  /// Enables the intra/cross-region traffic split: with `regions` > 1 every
  /// send is classified by the sender's and receiver's region (id mod
  /// regions — the same stateless partition overlay::region_of uses; the
  /// modulo is inlined here so the sim layer needs no overlay dependency).
  /// 0 (the default) disables the split entirely — not even the modulo runs,
  /// keeping non-hierarchical sends on the exact historic path.
  void set_region_count(std::size_t regions) { region_count_ = regions; }

  std::uint64_t intra_region_messages() const { return intra_region_messages_; }
  std::uint64_t cross_region_messages() const { return cross_region_messages_; }
  std::uint64_t intra_region_bytes() const { return intra_region_bytes_; }
  std::uint64_t cross_region_bytes() const { return cross_region_bytes_; }

  TrafficLedger& traffic() { return traffic_; }
  const TrafficLedger& traffic() const { return traffic_; }

  std::uint64_t sent_messages() const { return sent_; }
  std::uint64_t delivered_messages() const { return delivered_; }
  /// Organic failures only: destination unknown or down at delivery time.
  std::uint64_t dropped_messages() const { return dropped_; }
  /// Fault-plane injections: random loss + partition blocking.
  std::uint64_t faulted_messages() const { return faulted_; }
  /// Extra deliveries injected by fault-plane duplication.
  std::uint64_t duplicated_messages() const { return duplicated_; }

 private:
  struct NodeState {
    Handler handler;
    bool up{true};
  };

  void schedule_delivery(NodeId from, NodeId to, MessageTypeId type,
                         Duration delay, std::unique_ptr<Message> message);
  void schedule_delivery_at(NodeId from, NodeId to, MessageTypeId type,
                            TimePoint deliver_at, std::uint64_t key,
                            std::unique_ptr<Message> message);

  /// Same-instant delivery ordering key: (sender, per-sender delivery
  /// count), packed so keys from different senders never collide and a
  /// sender's deliveries keep their send order. The counter advances once
  /// per scheduled delivery on the *sender's* network, so the key is a pure
  /// function of the sender's own send history — identical under sequential
  /// and sharded execution (docs/pdes.md "Determinism contract"). The +1
  /// keeps every delivery key above 0, the key timers and engine events
  /// schedule with.
  std::uint64_t next_delivery_key(NodeId from) {
    return ((static_cast<std::uint64_t>(from.value()) + 1) << 32) |
           (delivery_seq_[from]++ & 0xFFFFFFFFull);
  }

  /// Latency jitter is drawn from a per-sender stream (base_rng_ forked on
  /// the sender id, cached lazily) rather than one shared stream. This is a
  /// pillar of the PDES determinism contract (docs/pdes.md): the draw
  /// sequence a sender sees is then a function of that sender's own send
  /// order only, which is identical under sequential and sharded execution —
  /// a shared stream would depend on the global interleaving of all senders.
  Rng& jitter_rng(NodeId from) {
    auto it = sender_rng_.find(from);
    if (it == sender_rng_.end()) {
      it = sender_rng_.emplace(from, base_rng_.fork(from.value())).first;
    }
    return it->second;
  }

  /// Sampling gate + forward to the tap; called only when tap_ != nullptr.
  void tap_message(NodeId from, NodeId to, const Message& message,
                   TimePoint deliver, bool faulted) {
    if (tap_counter_++ % tap_every_ != 0) return;
    tap_->on_message(from, to, message, sim_.now(), deliver, faulted);
  }

  Simulator& sim_;
  std::unique_ptr<LatencyModel> latency_;
  Rng base_rng_;
  std::unordered_map<NodeId, Rng> sender_rng_;
  std::unordered_map<NodeId, std::uint64_t> delivery_seq_;
  TrafficLedger traffic_;
  FaultPlane* faults_{nullptr};
  RemoteRoute* remote_{nullptr};
  MessageTap* tap_{nullptr};
  std::uint64_t tap_every_{1};
  std::uint64_t tap_counter_{0};
  std::unordered_map<NodeId, NodeState> nodes_;
  std::size_t region_count_{0};
  std::uint64_t intra_region_messages_{0};
  std::uint64_t cross_region_messages_{0};
  std::uint64_t intra_region_bytes_{0};
  std::uint64_t cross_region_bytes_{0};
  std::uint64_t sent_{0};
  std::uint64_t delivered_{0};
  std::uint64_t dropped_{0};
  std::uint64_t faulted_{0};
  std::uint64_t duplicated_{0};
};

}  // namespace aria::sim
