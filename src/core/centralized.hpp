// Centralized omniscient meta-scheduler — an ablation baseline, not part of
// the paper's protocol.
//
// It represents the idealized classical alternative ARiA argues against
// (§II): a single scheduler with an instantaneous global view. On every
// submission it quotes all matching nodes with zero communication cost or
// delay and assigns to the cheapest. Comparing it against ARiA bounds how
// much the distributed protocol pays for decentralization.
#pragma once

#include <vector>

#include "core/node.hpp"
#include "core/observer.hpp"

namespace aria::proto {

class CentralizedMetaScheduler {
 public:
  /// `nodes` are the machines under management (non-owning); `observer` may
  /// be null.
  CentralizedMetaScheduler(sim::Simulator& sim, std::vector<AriaNode*> nodes,
                           ProtocolObserver* observer)
      : sim_{sim}, nodes_{std::move(nodes)}, observer_{observer} {}

  /// Assigns `job` to the lowest-cost matching node immediately.
  /// Returns false (and reports unschedulable) when nothing matches.
  bool submit(const grid::JobSpec& job, NodeId submitted_to);

  /// One global rescheduling sweep (the centralized analogue of the INFORM
  /// phase): moves any waiting job to a node quoting a lower cost than its
  /// current one by more than `threshold` seconds. Returns moves made.
  std::size_t rebalance(double threshold_seconds);

 private:
  AriaNode* best_node_for(const grid::JobSpec& job, double* cost_out) const;
  /// Hands `event` to the observer (if any), stamped with the current time.
  void emit(const ProtocolEvent& event) {
    if (observer_ != nullptr) observer_->on_event(sim_.now(), event);
  }

  sim::Simulator& sim_;
  std::vector<AriaNode*> nodes_;
  ProtocolObserver* observer_;
};

}  // namespace aria::proto
