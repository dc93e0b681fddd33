#include "workload/aggregate.hpp"

namespace aria::workload {

ScenarioSummary summarize(const ScenarioConfig& scenario,
                          const std::vector<RunResult>& results,
                          Duration curve_bucket) {
  ScenarioSummary s;
  s.name = scenario.name;
  s.runs = results.size();

  std::vector<metrics::Series> idles, node_counts, curves;
  const TimePoint horizon = TimePoint::origin() + scenario.horizon;
  for (const RunResult& r : results) {
    s.completion_minutes.add(r.mean_completion_minutes());
    s.waiting_minutes.add(r.mean_waiting_minutes());
    s.execution_minutes.add(r.mean_execution_minutes());
    s.completed_jobs.add(static_cast<double>(r.completed()));
    s.reschedules.add(static_cast<double>(r.tracker.total_reschedules()));
    s.missed_deadlines.add(static_cast<double>(r.missed_deadlines()));
    s.met_slack_minutes.add(r.mean_met_slack_minutes());
    s.missed_time_minutes.add(r.mean_missed_time_minutes());
    s.overlay_avg_path_length.add(r.overlay_avg_path_length);
    s.overlay_avg_degree.add(r.overlay_avg_degree);
    s.traffic.merge(r.traffic);
    idles.push_back(r.idle_series);
    node_counts.push_back(r.node_count_series);
    curves.push_back(r.completed_series(curve_bucket, horizon));
  }
  s.idle_series = metrics::average(idles);
  s.idle_series.set_label(scenario.name);
  s.node_count_series = metrics::average(node_counts);
  s.node_count_series.set_label(scenario.name);
  s.completed_curve = metrics::average(curves);
  s.completed_curve.set_label(scenario.name);
  if (scenario.aria.overload.enabled && !results.empty()) {
    std::vector<metrics::Series> depths, sheds, rejects;
    for (const RunResult& r : results) {
      depths.push_back(r.queue_depth_series);
      sheds.push_back(r.shed_series);
      rejects.push_back(r.reject_series);
    }
    s.queue_depth_series = metrics::average(depths);
    s.queue_depth_series.set_label(scenario.name);
    s.shed_series = metrics::average(sheds);
    s.shed_series.set_label(scenario.name);
    s.reject_series = metrics::average(rejects);
    s.reject_series.set_label(scenario.name);
  }
  return s;
}

}  // namespace aria::workload
