// Canonical send journal + first-divergence reporter (docs/pdes.md
// "Divergence triage").
//
// When a sharded run fails to reproduce its sequential golden, aggregate
// counters say *that* something differed, not *what*. The journal records
// every wire send — timestamp, endpoints, type, delivery instant, fault
// verdict — through the existing MessageTap seam, stamps each record with a
// per-sender sequence number, and sorts canonically by (send time, sender,
// per-sender seq). Per-sender order is shard-invariant (a sender's sends
// are a function of its own local event order), so the sequential and
// sharded journals of equivalent runs are byte-identical and the first
// mismatching record names the first divergent event.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/time.hpp"
#include "sim/network.hpp"

namespace aria::sim::pdes {

struct JournalEntry {
  TimePoint sent{};
  NodeId from{};
  NodeId to{};
  MessageTypeId type{};
  TimePoint deliver{};  // == sent for messages the fault plane dropped
  bool faulted{false};
  std::uint64_t sender_seq{0};

  bool operator==(const JournalEntry&) const = default;

  /// "t=+1234567us n42 -> n17 REQUEST deliver=+1234912us seq=3"
  std::string to_string() const;
};

/// One journal per Network (one per shard in a sharded run): on_message is
/// called from that shard's worker only, so no synchronization is needed.
/// Attach with Network::set_tap(journal, 1) or TapList::add(journal, 1) —
/// sampling must be 1, the contract is *every* send.
class EventJournal final : public MessageTap {
 public:
  void on_message(NodeId from, NodeId to, const Message& message,
                  TimePoint sent, TimePoint deliver, bool faulted) override;

  const std::vector<JournalEntry>& entries() const { return entries_; }

 private:
  std::vector<JournalEntry> entries_;
  std::unordered_map<NodeId, std::uint64_t> sender_seq_;
};

/// Concatenates per-shard journals and sorts canonically by
/// (sent, sender id, per-sender seq).
std::vector<JournalEntry> merge_journals(
    const std::vector<const EventJournal*>& journals);

struct Divergence {
  std::size_t index{0};     // position in the canonical order
  std::string description;  // names the first divergent event, both sides
};

/// First position at which the canonical journals differ; nullopt when they
/// are identical. `expected` is the sequential oracle, `actual` the sharded
/// run.
std::optional<Divergence> first_divergence(
    const std::vector<JournalEntry>& expected,
    const std::vector<JournalEntry>& actual);

}  // namespace aria::sim::pdes
