// Aggregation over repeated runs (the paper repeats every scenario 10
// times and reports averages). The runs themselves execute on the sweep
// runner's worker pool (sweep::run_all).
#pragma once

#include <string>
#include <vector>

#include "common/stats.hpp"
#include "metrics/timeseries.hpp"
#include "sim/traffic.hpp"
#include "workload/engine.hpp"

namespace aria::workload {

/// Aggregated view over N runs of one scenario.
struct ScenarioSummary {
  std::string name;
  std::size_t runs{0};

  RunningStats completion_minutes;  // one sample per run (run mean)
  RunningStats waiting_minutes;
  RunningStats execution_minutes;
  RunningStats completed_jobs;
  RunningStats reschedules;
  RunningStats missed_deadlines;
  RunningStats met_slack_minutes;
  RunningStats missed_time_minutes;
  RunningStats overlay_avg_path_length;
  RunningStats overlay_avg_degree;

  metrics::Series idle_series;       // averaged across runs
  metrics::Series node_count_series; // averaged across runs
  metrics::Series completed_curve;   // averaged across runs
  /// Overload-plane series, averaged across runs; empty when the plane was
  /// off for the scenario.
  metrics::Series queue_depth_series;
  metrics::Series shed_series;
  metrics::Series reject_series;

  /// Sum over runs; divide by `runs` for a per-run mean.
  sim::TrafficLedger traffic;

  double traffic_mib_mean(const std::string& type) const {
    if (runs == 0) return 0.0;
    return static_cast<double>(traffic.of(type).bytes) /
           (1024.0 * 1024.0 * static_cast<double>(runs));
  }
  double traffic_mib_mean_total() const {
    if (runs == 0) return 0.0;
    return static_cast<double>(traffic.total().bytes) /
           (1024.0 * 1024.0 * static_cast<double>(runs));
  }
};

/// Collapses runs into a summary. `curve_bucket` sets the sampling grid of
/// the averaged completed-jobs curve.
ScenarioSummary summarize(const ScenarioConfig& scenario,
                          const std::vector<RunResult>& results,
                          Duration curve_bucket = Duration::minutes(30));

}  // namespace aria::workload
