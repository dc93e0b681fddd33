// Per-job critical-path summaries derived from a collected trace: where did
// each job's wall-clock go between submission and completion? (docs/tracing.md
// §Critical path; the aria_sim --trace summary table is built from these.)
#pragma once

#include <cstddef>
#include <vector>

#include "common/ids.hpp"
#include "common/stats.hpp"
#include "common/time.hpp"
#include "common/uuid.hpp"
#include "trace/buffer.hpp"

namespace aria::trace {

/// One job's scheduling timeline, reduced to the latencies that matter.
/// Built by walking the job-event stream in collection order; jobs appear in
/// first-seen (= submission) order.
struct JobCriticalPath {
  JobId job{};
  NodeId initiator{};
  TimePoint submitted{};

  /// submit → first ACCEPT quote entering an offer set (includes the
  /// initiator's own quote). Valid only when `bids > 0`.
  Duration time_to_first_bid{};
  /// ACCEPT quotes collected across the job's whole life (discovery floods
  /// and reschedule INFORMs alike).
  std::size_t bids{0};

  /// Mean ASSIGN-in-flight latency over matched delegated→assigned pairs
  /// (zero when `delegations == 0`, i.e. every placement was local).
  Duration delegation_latency() const {
    return delegations == 0 ? Duration::zero()
                            : Duration::micros(delegation_us_total /
                                               static_cast<std::int64_t>(
                                                   delegations));
  }
  std::int64_t delegation_us_total{0};
  std::size_t delegations{0};

  /// Final queue residence: last ASSIGN accepted → execution start. Earlier
  /// waits ended by a reschedule are counted as scheduling time, not queue
  /// wait. Valid only when `started`.
  Duration queue_wait{};

  std::size_t reschedules{0};  // kAssigned records flagged kReschedule
  std::size_t retries{0};      // empty discovery rounds
  std::size_t recoveries{0};   // failsafe re-floods
  std::size_t sheds{0};        // bounded-queue evictions
  std::size_t rejects{0};      // admission REJECTs

  bool started{false};
  /// Last execution span (kStarted → kCompleted). Valid only when
  /// `completed`.
  Duration execution{};

  bool completed{false};
  bool unschedulable{false};
  bool abandoned{false};
  /// Terminal timestamp; `finished - submitted` is the job's makespan.
  /// Valid when any terminal flag is set.
  TimePoint finished{};

  bool terminal() const { return completed || unschedulable || abandoned; }
};

/// Fleet-level aggregation of the per-job summaries (only jobs with the
/// relevant milestone contribute to each accumulator; times in seconds).
struct CriticalPathAggregate {
  RunningStats time_to_first_bid_s;
  RunningStats bids;
  RunningStats delegation_latency_s;  // jobs with >= 1 remote placement
  RunningStats queue_wait_s;          // jobs that started executing
  RunningStats reschedules;
  RunningStats makespan_s;  // terminal jobs: submit → terminal event
  std::size_t jobs{0};
  std::size_t completed{0};
  std::size_t unschedulable{0};
  std::size_t abandoned{0};
  std::size_t open{0};  // no terminal event inside the trace horizon
};

/// Reduces the buffer's job-event stream to per-job summaries,
/// first-submission order.
std::vector<JobCriticalPath> critical_paths(const TraceBuffer& buffer);

CriticalPathAggregate aggregate(const std::vector<JobCriticalPath>& paths);

}  // namespace aria::trace
