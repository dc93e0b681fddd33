// Per-shard observer recording + deterministic replay (docs/pdes.md
// "Determinism contract").
//
// The JobTracker is shared mutable state the shard workers must not touch:
// its counters are unsynchronized, and — more subtly — its records map
// iterates in *insertion* order wherever RunResult sums floats over it, so
// even a perfectly locked tracker fed in thread-completion order would
// drift the derived metrics. Instead every shard gets a RecordingObserver
// that appends each protocol event, as it is, to a private log, and after
// the run the logs are merged in canonical order and replayed into the
// engine's observer list on one thread.
//
// Canonical merge order: (timestamp, engine-phase entries first in their
// global serial order, then window entries by (shard, local index)).
// Engine-phase events (submissions, churn side effects) run serially at
// executor barriers and carry a global sequence number, so their relative
// order is exact; window entries from one shard keep their local causal
// order, and cross-shard entries at the same microsecond are the accepted
// tie hazard the journal reporter exists for.
#pragma once

#include <cstdint>
#include <vector>

#include "common/time.hpp"
#include "core/observer.hpp"
#include "sim/pdes/executor.hpp"

namespace aria::workload {

class RecordingObserver final : public proto::ProtocolObserver {
 public:
  /// `stamp` is the executor's engine-phase stamp; entries recorded while
  /// it is raised get a global serial number. Must outlive the observer.
  explicit RecordingObserver(sim::pdes::EngineStamp* stamp) : stamp_{stamp} {}

  void on_event(TimePoint at, const proto::ProtocolEvent& event) override {
    const std::uint64_t seq =
        stamp_ != nullptr && stamp_->active ? stamp_->next++ : kWindowEntry;
    entries_.push_back(Entry{at, seq, event});
  }

  std::size_t size() const { return entries_.size(); }

  /// Merges the observers' logs in canonical order and replays every
  /// event into `target` on the calling thread.
  static void replay(const std::vector<const RecordingObserver*>& shards,
                     proto::ProtocolObserver& target);

 private:
  static constexpr std::uint64_t kWindowEntry = UINT64_MAX;

  struct Entry {
    TimePoint at{};
    /// Global serial number for engine-phase entries; kWindowEntry for
    /// entries recorded inside a parallel window.
    std::uint64_t engine_seq{kWindowEntry};
    proto::ProtocolEvent event;
  };

  sim::pdes::EngineStamp* stamp_;
  std::vector<Entry> entries_;
};

}  // namespace aria::workload
