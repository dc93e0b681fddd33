#include "sim/pdes/executor.hpp"

#include <barrier>
#include <stdexcept>
#include <thread>
#include <utility>

namespace aria::sim::pdes {

ShardExecutor::ShardExecutor(std::vector<Simulator*> shards, Simulator& engine,
                             ChannelMatrix& channels,
                             std::vector<Network*> nets, Config config)
    : shards_{std::move(shards)},
      engine_{engine},
      channels_{channels},
      nets_{std::move(nets)},
      config_{config},
      fired_(shards_.size(), 0) {
  // Checked in every build: a zero lookahead makes every window [T, T)
  // empty, so run() would never advance, and a network missing for some
  // shard would be indexed out of bounds by drain().
  if (shards_.empty()) {
    throw std::invalid_argument("ShardExecutor needs at least one shard");
  }
  if (nets_.size() != shards_.size()) {
    throw std::invalid_argument("ShardExecutor needs one network per shard");
  }
  if (config_.lookahead <= Duration::zero()) {
    throw std::invalid_argument("ShardExecutor lookahead must be > 0");
  }
}

void ShardExecutor::drain() noexcept {
  // Canonical order — destination-major, source ascending, FIFO within a
  // channel. Each delivery is scheduled under its sender-stamped ordering
  // key, so same-instant deliveries fire in (sender, per-sender seq) order
  // no matter when they were drained — the drain order itself only has to
  // be deterministic, not sequential-equivalent.
  const std::size_t n = shards_.size();
  for (std::size_t dst = 0; dst < n; ++dst) {
    for (std::size_t src = 0; src < n; ++src) {
      if (src == dst) continue;
      stats_.messages_forwarded +=
          channels_.at(src, dst).drain([&](CrossShardEnvelope&& e) {
            nets_[dst]->deliver_remote(e.from, e.to, e.deliver_at, e.key,
                                       std::move(e.message));
          });
    }
  }
}

// Runs in a serial context only: before the workers start, and as the
// barrier completion step while every worker is blocked. Decides whether
// the next stretch of simulated time belongs to the engine (run here,
// serially), to one shard alone (run here too), or to several shards (set
// up a parallel window and return).
void ShardExecutor::coordinate() noexcept {
  drain();  // messages produced by the window that just ended
  if (config_.stamp != nullptr) config_.stamp->active = true;
  for (;;) {
    const std::optional<TimePoint> t_engine = engine_.peek();
    std::optional<TimePoint> t_shard;
    for (Simulator* s : shards_) {
      const std::optional<TimePoint> p = s->peek();
      if (p && (!t_shard || *p < *t_shard)) t_shard = p;
    }

    // Engine phase. Ties go to the engine — a documented deviation from
    // the sequential kernel's global (time, seq) order; see docs/pdes.md
    // "Determinism contract" for why same-microsecond engine/shard ties
    // are the one accepted hazard.
    if (t_engine && *t_engine <= config_.horizon &&
        (!t_shard || *t_engine <= *t_shard)) {
      const TimePoint t = *t_engine;
      // Shard clocks must sit at t before engine events call into nodes:
      // node code schedules follow-ups via its shard simulator, and those
      // offsets anchor at now(). Safe — no shard holds an event before t.
      for (Simulator* s : shards_) s->advance_to(t);
      ++stats_.engine_phases;
      stats_.engine_events += engine_.run_until(t);
      drain();  // engine-phase sends may have crossed shards
      continue;
    }

    if (!t_shard || *t_shard > config_.horizon) {
      // Nothing left inside the horizon. Land every clock on it, exactly
      // like Simulator::run_until leaves the sequential clock.
      engine_.run_until(config_.horizon);
      for (Simulator* s : shards_) s->advance_to(config_.horizon);
      done_ = true;
      return;
    }

    // Shard window [*t_shard, end). Any message sent at time t inside it
    // arrives at t + latency >= *t_shard + lookahead >= end, so shards
    // cannot affect each other within the window. The +1us past the
    // horizon makes events scheduled exactly at the horizon fire
    // (run_until_before's bound is exclusive).
    TimePoint end = *t_shard + config_.lookahead;
    if (t_engine && *t_engine < end) end = *t_engine;
    const TimePoint hard = config_.horizon + Duration::micros(1);
    if (end > hard) end = hard;
    ++stats_.windows;

    // One-shard window: if only shard k has an event before `end`, every
    // other shard would fire nothing in [T, end), so running k right here
    // is the same window without waking the workers. run_until_before
    // touches only k's state and moves no clock, and the drain below is
    // the one the barrier would have run, so the window sequence, events
    // and sends are unchanged. The workers are parked (or not yet
    // spawned), which makes shard k's state ours to touch.
    std::size_t active = 0;
    std::size_t lone = 0;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      const std::optional<TimePoint> p = shards_[i]->peek();
      if (p && *p < end) {
        ++active;
        lone = i;
      }
    }
    if (config_.stamp != nullptr) config_.stamp->active = false;
    if (active == 1) {
      ++stats_.inline_windows;
      fired_[lone] += shards_[lone]->run_until_before(end);
      if (config_.stamp != nullptr) config_.stamp->active = true;
      drain();  // the next T must see this window's cross-shard sends
      continue;
    }
    window_end_ = end;
    return;
  }
}

template <typename Barrier>
void ShardExecutor::worker(std::size_t index, Barrier& sync) {
  while (!done_) {
    fired_[index] += shards_[index]->run_until_before(window_end_);
    sync.arrive_and_wait();  // completion step runs coordinate()
  }
}

ShardExecutor::Stats ShardExecutor::run() {
  coordinate();  // first directive; may finish an event-free run outright
  if (!done_) {
    struct Completion {
      ShardExecutor* self;
      void operator()() noexcept { self->coordinate(); }
    };
    std::barrier<Completion> sync{
        static_cast<std::ptrdiff_t>(shards_.size()), Completion{this}};
    std::vector<std::thread> threads;
    threads.reserve(shards_.size() - 1);
    for (std::size_t i = 1; i < shards_.size(); ++i) {
      threads.emplace_back([this, i, &sync] { worker(i, sync); });
    }
    worker(0, sync);
    for (std::thread& t : threads) t.join();
  }
  if (config_.stamp != nullptr) config_.stamp->active = true;
  for (const std::uint64_t f : fired_) stats_.shard_events += f;
  return stats_;
}

}  // namespace aria::sim::pdes
