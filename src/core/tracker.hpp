// Grid-wide job lifecycle tracking.
//
// JobTracker observes every protocol event and maintains one record per
// job: submission, the full assignment chain, execution start/end, retries.
// It doubles as the reproduction's safety net: lifecycle violations (a job
// started twice, completed without starting, ...) are collected as strings
// and asserted empty by the test suite after every simulated run.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/observer.hpp"

namespace aria::proto {

struct JobRecord {
  grid::JobSpec spec;
  NodeId initiator{};
  TimePoint submitted{};
  /// Every node the job was queued on, in order (first = initial assignee).
  std::vector<std::pair<NodeId, TimePoint>> assignments;
  std::optional<TimePoint> started;
  NodeId executor{};
  std::optional<TimePoint> completed;
  Duration art{};
  std::size_t retries{0};
  std::size_t recoveries{0};  // failsafe re-submissions
  std::size_t sheds{0};       // bounded-queue evictions (overload plane)
  std::size_t rejects{0};     // admission REJECTs (overload plane)
  bool unschedulable{false};
  /// The initiator exhausted its recovery budget and stopped watching.
  bool abandoned{false};
  /// Number of times execution began (> 1 only after crash recoveries).
  std::size_t executions{0};

  bool done() const { return completed.has_value(); }
  /// A job is terminal once it completed or was given up on; under faults
  /// every submitted job must end terminal (no stranded jobs).
  bool terminal() const { return done() || unschedulable || abandoned; }
  std::size_t reschedule_count() const {
    return assignments.empty() ? 0 : assignments.size() - 1;
  }
  /// Submission -> execution start.
  Duration waiting_time() const { return *started - submitted; }
  /// Execution start -> completion (== actual running time).
  Duration execution_time() const { return *completed - *started; }
  /// Submission -> completion.
  Duration completion_time() const { return *completed - submitted; }

  bool has_deadline() const { return spec.deadline.has_value(); }
  bool missed_deadline() const {
    return done() && has_deadline() && *completed > *spec.deadline;
  }
  /// deadline - completion; positive = met with slack, negative = missed.
  Duration deadline_slack() const { return *spec.deadline - *completed; }
};

class JobTracker final : public ProtocolObserver {
 public:
  void on_event(TimePoint at, const ProtocolEvent& event) override;

  const std::unordered_map<JobId, JobRecord>& records() const {
    return records_;
  }
  const JobRecord* find(const JobId& id) const;

  std::size_t submitted_count() const { return records_.size(); }
  std::size_t completed_count() const { return completed_; }
  std::size_t unschedulable_count() const { return unschedulable_; }
  std::size_t abandoned_count() const { return abandoned_; }
  std::uint64_t total_reschedules() const { return reschedules_; }
  std::uint64_t total_recoveries() const { return recoveries_; }
  std::uint64_t total_sheds() const { return sheds_; }
  std::uint64_t total_rejects() const { return rejects_; }

  /// Submitted jobs that never reached a terminal state (completed,
  /// unschedulable, or abandoned). Must be 0 at the end of any run.
  std::size_t stranded_count() const;

  /// Jobs that were admission-rejected at least once and still never
  /// completed (unschedulable, abandoned, or stranded) — the population an
  /// overload run must account for instead of silently reporting success.
  std::size_t rejected_incomplete_count() const;

  /// Lifecycle violations seen so far; empty on a healthy run.
  const std::vector<std::string>& violations() const { return violations_; }

 private:
  JobRecord* must_find(const JobId& id, const char* context);

  void apply(const event::Submitted& e, TimePoint at);
  void apply(const event::RequestRetry& e, TimePoint at);
  void apply(const event::Unschedulable& e, TimePoint at);
  void apply(const event::Assigned& e, TimePoint at);
  void apply(const event::Started& e, TimePoint at);
  void apply(const event::Completed& e, TimePoint at);
  void apply(const event::Recovery& e, TimePoint at);
  void apply(const event::Abandoned& e, TimePoint at);
  void apply(const event::Shed& e, TimePoint at);
  void apply(const event::Rejected& e, TimePoint at);
  /// Bids, delegations and the hierarchy/defense events leave no record.
  void apply(const auto&, TimePoint) {}

  std::unordered_map<JobId, JobRecord> records_;
  std::vector<std::string> violations_;
  std::size_t completed_{0};
  std::size_t unschedulable_{0};
  std::size_t abandoned_{0};
  std::uint64_t reschedules_{0};
  std::uint64_t recoveries_{0};
  std::uint64_t sheds_{0};
  std::uint64_t rejects_{0};
};

}  // namespace aria::proto
