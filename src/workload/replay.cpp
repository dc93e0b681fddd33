#include "workload/replay.hpp"

#include <algorithm>

namespace aria::workload {

void RecordingObserver::replay(
    const std::vector<const RecordingObserver*>& shards,
    proto::ProtocolObserver& target) {
  struct Ref {
    TimePoint at;
    std::uint64_t engine_seq;
    std::size_t shard;
    std::size_t index;
  };
  std::vector<Ref> order;
  std::size_t total = 0;
  for (const RecordingObserver* o : shards) total += o->entries_.size();
  order.reserve(total);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const auto& entries = shards[s]->entries_;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      order.push_back(Ref{entries[i].at, entries[i].engine_seq, s, i});
    }
  }
  std::sort(order.begin(), order.end(), [](const Ref& a, const Ref& b) {
    if (a.at != b.at) return a.at < b.at;
    // Engine-phase entries (finite seq) precede window entries and carry
    // an exact global order; window ties fall back to (shard, local index).
    if (a.engine_seq != b.engine_seq) return a.engine_seq < b.engine_seq;
    if (a.shard != b.shard) return a.shard < b.shard;
    return a.index < b.index;
  });

  for (const Ref& ref : order) {
    const Entry& e = shards[ref.shard]->entries_[ref.index];
    target.on_event(e.at, e.event);
  }
}

}  // namespace aria::workload
