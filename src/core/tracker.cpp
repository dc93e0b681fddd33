#include "core/tracker.hpp"

namespace aria::proto {
namespace {

bool was_assigned(const JobRecord& r, NodeId node) {
  for (const auto& [assignee, at] : r.assignments) {
    if (assignee == node) return true;
  }
  return false;
}

}  // namespace

JobRecord* JobTracker::must_find(const JobId& id, const char* context) {
  auto it = records_.find(id);
  if (it == records_.end()) {
    violations_.push_back(std::string{context} + " for unknown job " +
                          id.to_string());
    return nullptr;
  }
  return &it->second;
}

void JobTracker::on_event(TimePoint at, const ProtocolEvent& event) {
  std::visit([&](const auto& e) { apply(e, at); }, event);
}

void JobTracker::apply(const event::Submitted& e, TimePoint at) {
  auto [it, inserted] = records_.try_emplace(e.job.id);
  if (!inserted) {
    violations_.push_back("job " + e.job.id.to_string() + " submitted twice");
    return;
  }
  it->second.spec = e.job;
  it->second.initiator = e.initiator;
  it->second.submitted = at;
}

void JobTracker::apply(const event::RequestRetry& e, TimePoint) {
  if (JobRecord* r = must_find(e.id, "retry")) ++r->retries;
}

void JobTracker::apply(const event::Unschedulable& e, TimePoint) {
  if (JobRecord* r = must_find(e.id, "unschedulable")) {
    r->unschedulable = true;
    ++unschedulable_;
  }
}

void JobTracker::apply(const event::Assigned& e, TimePoint at) {
  JobRecord* r = must_find(e.job.id, "assignment");
  if (r == nullptr) return;
  // A job that has undergone a recovery is tracked with at-least-once
  // semantics for the rest of its life: the presumed-dead assignee may have
  // been alive all along (only its ACKs/NOTIFYs were lost) and race the
  // recovery round, so re-assignment after a start is legitimate there.
  if (r->started && r->recoveries == 0) {
    violations_.push_back("job " + e.job.id.to_string() +
                          " assigned after execution started");
  }
  if (r->recoveries == 0 && e.reschedule != !r->assignments.empty()) {
    violations_.push_back("job " + e.job.id.to_string() +
                          " reschedule flag inconsistent with history");
  }
  if (e.reschedule) ++reschedules_;
  r->assignments.emplace_back(e.node, at);
}

void JobTracker::apply(const event::Started& e, TimePoint at) {
  JobRecord* r = must_find(e.id, "start");
  if (r == nullptr) return;
  if (r->started && r->recoveries == 0) {
    violations_.push_back("job " + e.id.to_string() + " started twice");
    return;
  }
  // Normally only the latest assignee may start the job; after a recovery
  // any node it was ever assigned to may (the original assignee races the
  // recovery assignee — at-least-once).
  const bool assigned_here =
      r->recoveries > 0
          ? was_assigned(*r, e.node)
          : !r->assignments.empty() && r->assignments.back().first == e.node;
  if (!assigned_here) {
    violations_.push_back("job " + e.id.to_string() +
                          " started on a node it was not assigned to");
  }
  if (!r->started) r->started = at;
  r->executor = e.node;
  ++r->executions;
}

void JobTracker::apply(const event::Completed& e, TimePoint at) {
  JobRecord* r = must_find(e.id, "completion");
  if (r == nullptr) return;
  if (!r->started) {
    violations_.push_back("job " + e.id.to_string() +
                          " completed without starting");
    return;
  }
  if (r->completed) {
    // After a failsafe recovery the job runs at-least-once: if the original
    // assignee was alive all along (only its NOTIFYs were lost), both the
    // original and the recovered execution legitimately complete. The first
    // completion wins; replays are dropped silently.
    if (r->recoveries == 0) {
      violations_.push_back("job " + e.id.to_string() + " completed twice");
    }
    return;
  }
  if (r->executor != e.node) {
    if (r->recoveries > 0 && was_assigned(*r, e.node)) {
      // The racing execution finished first; record the actual winner.
      r->executor = e.node;
    } else {
      violations_.push_back("job " + e.id.to_string() +
                            " completed on a different node than it started");
    }
  }
  r->completed = at;
  r->art = e.art;
  ++completed_;
}

void JobTracker::apply(const event::Recovery& e, TimePoint) {
  if (JobRecord* r = must_find(e.id, "recovery")) {
    ++r->recoveries;
    ++recoveries_;
  }
}

void JobTracker::apply(const event::Abandoned& e, TimePoint) {
  JobRecord* r = must_find(e.id, "abandonment");
  if (r == nullptr) return;
  if (r->done()) {
    violations_.push_back("job " + e.id.to_string() +
                          " abandoned after completing");
    return;
  }
  if (!r->abandoned) {
    r->abandoned = true;
    ++abandoned_;
  }
}

void JobTracker::apply(const event::Shed& e, TimePoint) {
  if (JobRecord* r = must_find(e.job.id, "shed")) {
    ++r->sheds;
    ++sheds_;
  }
}

void JobTracker::apply(const event::Rejected& e, TimePoint) {
  if (JobRecord* r = must_find(e.id, "rejection")) {
    ++r->rejects;
    ++rejects_;
  }
}

std::size_t JobTracker::rejected_incomplete_count() const {
  std::size_t n = 0;
  for (const auto& [id, r] : records_) {
    if (r.rejects > 0 && !r.done()) ++n;
  }
  return n;
}

std::size_t JobTracker::stranded_count() const {
  std::size_t n = 0;
  for (const auto& [id, r] : records_) {
    if (!r.terminal()) ++n;
  }
  return n;
}

const JobRecord* JobTracker::find(const JobId& id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

}  // namespace aria::proto
