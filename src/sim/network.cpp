#include "sim/network.hpp"

#include <utility>

namespace aria::sim {

void Network::schedule_delivery(NodeId from, NodeId to, MessageTypeId type,
                                Duration delay,
                                std::unique_ptr<Message> message) {
  const TimePoint deliver_at = sim_.now() + delay;
  // The key is drawn on the sender's network whether or not the delivery is
  // local — the cross-shard path must consume the same counter values the
  // sequential path does.
  const std::uint64_t key = next_delivery_key(from);
  if (remote_ != nullptr && remote_->is_remote(to)) {
    remote_->forward(from, to, deliver_at, key, std::move(message));
    return;
  }
  schedule_delivery_at(from, to, type, deliver_at, key, std::move(message));
}

void Network::schedule_delivery_at(NodeId from, NodeId to, MessageTypeId type,
                                   TimePoint deliver_at, std::uint64_t key,
                                   std::unique_ptr<Message> message) {
  // The message moves straight into the delivery closure (UniqueCallback is
  // move-only, so no shared_ptr shim and no extra allocation).
  sim_.schedule_at_keyed(
      deliver_at, key,
      [this, from, to, type, msg = std::move(message)]() mutable {
        const NodeState* node = state(to);
        if (node == nullptr || !node->up) {
          traffic_.record_drop(type);
          return;
        }
        ++delivered_;
        (*node->handler)(Envelope{from, to, std::move(msg)});
      });
}

void Network::deliver_remote(NodeId from, NodeId to, TimePoint deliver_at,
                             std::uint64_t key,
                             std::unique_ptr<Message> message) {
  assert(message);
  // Read the type before the call: evaluation order of the arguments is
  // unspecified, and the move may empty `message` first.
  const MessageTypeId type = message->type_id();
  schedule_delivery_at(from, to, type, deliver_at, key, std::move(message));
}

void Network::send(NodeId from, NodeId to, std::unique_ptr<Message> message) {
  assert(message);
  assert(from.valid() && to.valid());
  const MessageTypeId type = message->type_id();
  const std::size_t bytes = message->wire_size();
  traffic_.record(type, bytes);
  if (region_count_ > 1) {
    if (from.value() % region_count_ == to.value() % region_count_) {
      ++counters_.intra_region_messages;
      counters_.intra_region_bytes += bytes;
    } else {
      ++counters_.cross_region_messages;
      counters_.cross_region_bytes += bytes;
    }
  }

  // Fault injection: one cheap null/flag test on the fault-free path; all
  // fault RNG draws happen on a dedicated stream inside the plane, so the
  // latency RNG below never shifts when faults are disabled.
  if (faults_ != nullptr && faults_->active()) {
    const FaultPlane::Verdict v = faults_->on_send(from, to, type, sim_.now());
    if (v.drop) {
      traffic_.record_fault(type);
      if (tap_ != nullptr) {
        tap_message(from, to, *message, sim_.now(), /*faulted=*/true);
      }
      return;
    }
    const Duration delay =
        latency_->latency(from, to, jitter_rng(from)) + v.extra_delay;
    if (v.duplicate) {
      if (auto copy = message->clone()) {
        ++counters_.duplicated_messages;
        schedule_delivery(from, to, type, delay + v.duplicate_lag,
                          std::move(copy));
      }
    }
    if (tap_ != nullptr) {
      // One tap per logical send: an injected duplicate is the same message
      // on the wire twice, and the trace records the primary delivery.
      tap_message(from, to, *message, sim_.now() + delay, /*faulted=*/false);
    }
    schedule_delivery(from, to, type, delay, std::move(message));
    return;
  }

  const Duration delay = latency_->latency(from, to, jitter_rng(from));
  if (tap_ != nullptr) {
    tap_message(from, to, *message, sim_.now() + delay, /*faulted=*/false);
  }
  schedule_delivery(from, to, type, delay, std::move(message));
}

}  // namespace aria::sim
