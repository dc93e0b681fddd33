// TraceBuffer: where trace records go (docs/tracing.md).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trace/record.hpp"

namespace aria::trace {

/// Bounded binary collection buffer: two pre-sized rings (job lifecycle vs
/// sampled wire messages) with drop-newest overflow. Dropping the *newest*
/// records keeps every captured span's beginning intact — a truncated trace
/// shows complete early history rather than orphaned span ends — and the
/// dropped counters make truncation explicit instead of silent.
class TraceBuffer {
 public:
  explicit TraceBuffer(const TraceConfig& config) : config_{config} {
    // Pre-size to modest starting chunks; capacity is a cap, not a reserve,
    // so a short run never pays for a 1M-record allocation.
    job_events_.reserve(std::min<std::size_t>(config_.job_ring_capacity, 4096));
    message_events_.reserve(
        std::min<std::size_t>(config_.message_ring_capacity, 4096));
  }

  /// Consumes one record in O(1) — it runs inside protocol handlers and
  /// the network send path. The buffer assigns `r.seq` (callers leave it
  /// 0); sequence numbers are global across both streams, so merging on
  /// `seq` reconstructs exact collection order.
  void record(TraceRecord r) {
    r.seq = seq_++;
    if (r.kind == TraceEventKind::kMsg) {
      append(message_events_, config_.message_ring_capacity, r,
             dropped_message_events_);
    } else {
      append(job_events_, config_.job_ring_capacity, r, dropped_job_events_);
    }
  }

  /// Job-lifecycle records in collection (= chronological) order.
  const std::vector<TraceRecord>& job_events() const { return job_events_; }
  /// Sampled wire-message records in collection order.
  const std::vector<TraceRecord>& message_events() const {
    return message_events_;
  }

  /// Both streams merged on `seq` (exact collection order).
  std::vector<TraceRecord> merged() const {
    std::vector<TraceRecord> out;
    out.reserve(job_events_.size() + message_events_.size());
    std::size_t j = 0, m = 0;
    while (j < job_events_.size() || m < message_events_.size()) {
      const bool take_job =
          m == message_events_.size() ||
          (j < job_events_.size() &&
           job_events_[j].seq < message_events_[m].seq);
      out.push_back(take_job ? job_events_[j++] : message_events_[m++]);
    }
    return out;
  }

  std::uint64_t total_recorded() const { return seq_; }
  std::uint64_t dropped_job_events() const { return dropped_job_events_; }
  std::uint64_t dropped_message_events() const {
    return dropped_message_events_;
  }

  const TraceConfig& config() const { return config_; }

 private:
  static void append(std::vector<TraceRecord>& ring, std::size_t capacity,
                     const TraceRecord& r, std::uint64_t& dropped) {
    if (ring.size() >= capacity) {
      ++dropped;
      return;
    }
    ring.push_back(r);
  }

  TraceConfig config_;
  std::uint64_t seq_{0};
  std::vector<TraceRecord> job_events_;
  std::vector<TraceRecord> message_events_;
  std::uint64_t dropped_job_events_{0};
  std::uint64_t dropped_message_events_{0};
};

}  // namespace aria::trace
