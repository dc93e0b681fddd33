#include "core/centralized.hpp"

#include <limits>

namespace aria::proto {

AriaNode* CentralizedMetaScheduler::best_node_for(const grid::JobSpec& job,
                                                  double* cost_out) const {
  AriaNode* best = nullptr;
  double best_cost = std::numeric_limits<double>::infinity();
  for (AriaNode* n : nodes_) {
    if (!n->can_bid(job)) continue;
    const double c = n->quote(job);
    if (c < best_cost) {
      best_cost = c;
      best = n;
    }
  }
  if (cost_out != nullptr) *cost_out = best_cost;
  return best;
}

bool CentralizedMetaScheduler::submit(const grid::JobSpec& job,
                                      NodeId submitted_to) {
  emit(event::Submitted{job, submitted_to});
  AriaNode* best = best_node_for(job, nullptr);
  if (best == nullptr) {
    emit(event::Unschedulable{job.id});
    return false;
  }
  best->deliver_assignment(job, submitted_to, /*reschedule=*/false);
  return true;
}

std::size_t CentralizedMetaScheduler::rebalance(double threshold_seconds) {
  std::size_t moved = 0;
  for (AriaNode* holder : nodes_) {
    // Snapshot: moving jobs mutates the queue being iterated.
    std::vector<grid::JobSpec> waiting;
    for (const auto& q : holder->scheduler().queue()) waiting.push_back(q.spec);
    for (const grid::JobSpec& spec : waiting) {
      const double current = holder->scheduler().current_cost(
          spec.id, holder->running_remaining(), sim_.now());
      double best_cost = 0.0;
      AriaNode* best = best_node_for(spec, &best_cost);
      if (best == nullptr || best == holder) continue;
      if (!(best_cost < current - threshold_seconds)) continue;
      if (!holder->remove_queued(spec.id)) continue;  // started meanwhile
      best->deliver_assignment(spec, kInvalidNode, /*reschedule=*/true);
      ++moved;
    }
  }
  return moved;
}

}  // namespace aria::proto
