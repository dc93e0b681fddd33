// Shared fixture: a hand-built micro-grid for protocol-level tests.
// Every component is real (simulator, network, overlay, schedulers); only
// the scale is small and fully controlled.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/node.hpp"
#include "core/tracker.hpp"
#include "grid/profile_gen.hpp"
#include "overlay/flooding.hpp"
#include "overlay/topology.hpp"
#include "sched/policies.hpp"
#include "sim/latency.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace aria::test {

using namespace aria::literals;

class TestGrid {
 public:
  explicit TestGrid(Duration latency = 10_ms, std::uint64_t seed = 1234)
      : rng_{seed} {
    net_ = std::make_unique<sim::Network>(
        sim, std::make_unique<sim::FixedLatencyModel>(latency), rng_.fork(1));
    relay_ = std::make_unique<overlay::FloodRelay>(topo, rng_.fork(2));
    // Defaults tuned for small fast tests.
    config.accept_timeout = 1_s;
    config.retry.backoff = 2_s;
    config.inform_period = 60_s;
    config.reschedule_threshold = 1_s;
  }

  ~TestGrid() {
    nodes.clear();  // nodes detach from net_ before it is destroyed
  }

  /// Adds a node with the given scheduler and performance index. Profile
  /// defaults to a machine that matches every default job.
  proto::AriaNode& add_node(sched::SchedulerKind kind, double perf = 1.0,
                            grid::NodeProfile profile = universal_profile(),
                            std::string vo = {}) {
    profile.performance_index = perf;
    proto::NodeContext ctx;
    ctx.sim = &sim;
    ctx.net = net_.get();
    ctx.topo = &topo;
    ctx.relay = relay_.get();
    ctx.config = &config;
    ctx.ert_error = &ert_error;
    ctx.observer = &tracker;
    const NodeId id{static_cast<std::uint32_t>(nodes.size())};
    topo.add_node(id);
    nodes.push_back(std::make_unique<proto::AriaNode>(
        ctx, id, profile, sched::make_scheduler(kind),
        rng_.fork(100 + id.value()), std::move(vo)));
    nodes.back()->start();
    return *nodes.back();
  }

  /// Fully connects the overlay (every pair linked).
  void connect_all() {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      for (std::size_t j = i + 1; j < nodes.size(); ++j) {
        topo.add_link(NodeId{static_cast<std::uint32_t>(i)},
                      NodeId{static_cast<std::uint32_t>(j)});
      }
    }
  }

  /// Connects the overlay as a path 0-1-2-...-n.
  void connect_line() {
    for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
      topo.add_link(NodeId{static_cast<std::uint32_t>(i)},
                    NodeId{static_cast<std::uint32_t>(i + 1)});
    }
  }

  static grid::NodeProfile universal_profile() {
    grid::NodeProfile p;
    p.arch = grid::Architecture::kAmd64;
    p.os = grid::OperatingSystem::kLinux;
    p.memory_gb = 16;
    p.disk_gb = 16;
    p.performance_index = 1.0;
    return p;
  }

  grid::JobSpec make_job(Duration ert,
                         std::optional<Duration> deadline_in = {}) {
    grid::JobSpec j;
    j.id = JobId::generate(rng_);
    j.requirements.arch = grid::Architecture::kAmd64;
    j.requirements.os = grid::OperatingSystem::kLinux;
    j.requirements.min_memory_gb = 1;
    j.requirements.min_disk_gb = 1;
    j.ert = ert;
    if (deadline_in) j.deadline = sim.now() + *deadline_in;
    return j;
  }

  void run_for(Duration d) { sim.run_until(sim.now() + d); }

  proto::AriaNode& node(std::size_t i) { return *nodes[i]; }
  sim::Network& net() { return *net_; }
  overlay::FloodRelay& relay() { return *relay_; }

  sim::Simulator sim;
  overlay::Topology topo;
  proto::AriaConfig config;
  grid::ErtErrorModel ert_error{grid::ErtErrorMode::kExact, 0.0};
  proto::JobTracker tracker;
  std::vector<std::unique_ptr<proto::AriaNode>> nodes;

 private:
  Rng rng_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<overlay::FloodRelay> relay_;
};

}  // namespace aria::test
