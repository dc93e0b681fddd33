// Conservative barrier-window PDES executor (docs/pdes.md).
//
// One simulation is split over S shard simulators (per-node protocol
// events) plus one engine simulator (workload submissions, churn,
// maintenance, sampling — everything the engine schedules globally). The
// executor alternates two phases:
//
//   * engine phase (serial): when the engine holds the globally earliest
//     event, every shard clock is advanced to that instant and the engine
//     events at it run on the coordinating thread — they may call into any
//     node, on any shard, exactly like the sequential kernel.
//   * shard window: otherwise, with T = min over shards of the next event
//     time and lookahead L = the latency model's minimum cross-link delay,
//     every shard independently runs its events in [T, E) where
//     E = min(T + L, next engine event, horizon + 1us). Any message sent
//     at t in the window arrives no earlier than t + L >= E, so nothing a
//     peer shard does inside the window can affect this window — the
//     classic conservative-lookahead argument. When two or more shards
//     have an event before E the window runs in parallel, one thread per
//     shard, between two barriers; when only one does, the coordinating
//     thread runs that shard's window itself and no barrier is paid (the
//     idle shards would have fired nothing).
//
// Cross-shard messages ride the ChannelMatrix and are drained at every
// barrier, in canonical order, onto the owning shard's simulator. The
// protocol is window-based rather than null-message-based because the
// engine plane already forces a global rendezvous (submissions and churn
// touch arbitrary shards), so the barrier is paid anyway and null-message
// plumbing would buy nothing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/time.hpp"
#include "sim/network.hpp"
#include "sim/pdes/channel.hpp"
#include "sim/simulator.hpp"

namespace aria::sim::pdes {

/// Shared flag + serial counter stamping engine-phase observer events.
/// The coordinator raises `active` for the engine phases (and leaves it
/// raised outside run(), covering build-time events) and clears it for
/// every shard window, whether it runs the window itself or releases the
/// workers into it; per-shard recorders read it to give engine-phase
/// events a single global order. All accesses are separated by the
/// executor's barrier, so no atomics are needed.
struct EngineStamp {
  bool active{true};
  std::uint64_t next{0};
};

class ShardExecutor {
 public:
  struct Config {
    /// Conservative lookahead: must be a lower bound on every cross-shard
    /// message latency (LatencyModel::min_latency()), and must be > 0 —
    /// zero lookahead would make every window empty (the constructor
    /// throws std::invalid_argument).
    Duration lookahead{};
    /// Run end; events scheduled exactly at the horizon fire, matching
    /// Simulator::run_until semantics.
    TimePoint horizon{};
    /// Optional engine-phase stamp (see EngineStamp).
    EngineStamp* stamp{nullptr};
  };

  /// Window-occupancy telemetry: on a host with few cores (or a scenario
  /// with tiny lookahead) these numbers, not the shard count, explain the
  /// wall-clock (docs/pdes.md "What bounds the speedup").
  struct Stats {
    std::uint64_t windows{0};        // shard windows executed (all kinds)
    std::uint64_t inline_windows{0}; // ...of which one-shard, no barrier
    std::uint64_t engine_phases{0};  // serial engine rendezvous
    std::uint64_t engine_events{0};  // events fired in engine phases
    std::uint64_t shard_events{0};   // events fired inside windows (all shards)
    std::uint64_t messages_forwarded{0};  // cross-shard channel hops
  };

  /// `shards[i]` and `nets[i]` are shard i's simulator and network (the
  /// drain side of the channels); `engine` is the engine-plane simulator.
  /// All pointers are non-owning and must outlive the executor. Throws
  /// std::invalid_argument when `shards` is empty, `nets` does not have
  /// one network per shard, or the lookahead is not positive.
  ShardExecutor(std::vector<Simulator*> shards, Simulator& engine,
                ChannelMatrix& channels, std::vector<Network*> nets,
                Config config);

  /// Runs the simulation to the horizon on shards.size() threads (the
  /// calling thread drives shard 0). On return every shard clock and the
  /// engine clock sit at the horizon and all channels are empty.
  Stats run();

 private:
  void coordinate() noexcept;
  void drain() noexcept;
  template <typename Barrier>
  void worker(std::size_t index, Barrier& sync);

  std::vector<Simulator*> shards_;
  Simulator& engine_;
  ChannelMatrix& channels_;
  std::vector<Network*> nets_;
  Config config_;
  Stats stats_;
  // Written only by the coordinator (barrier completion / pre-spawn), read
  // by workers after the barrier releases them — the barrier supplies the
  // happens-before edge.
  TimePoint window_end_{};
  bool done_{false};
  // Per-shard event counts. Slot k is written by worker k, or by the
  // coordinator for k's one-shard windows while every worker is parked.
  std::vector<std::uint64_t> fired_;
};

}  // namespace aria::sim::pdes
