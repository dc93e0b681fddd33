#include "sweep/report.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace aria::sweep {

namespace {

constexpr double kMiB = 1024.0 * 1024.0;

// Same fixed rendering as the trace exporters: a pure function of the
// double's bits, so reports serialize identically everywhere.
std::string fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void write_stats(std::ostream& out, const char* key, const RunningStats& s) {
  out << '"' << key << "\":{\"mean\":" << fmt(s.mean())
      << ",\"stddev\":" << fmt(s.stddev()) << ",\"min\":" << fmt(s.min())
      << ",\"max\":" << fmt(s.max()) << '}';
}

void write_traffic(std::ostream& out, const sim::TrafficLedger& ledger,
                   std::size_t runs) {
  const auto total = ledger.total();
  out << "{\"messages\":" << total.messages << ",\"bytes\":" << total.bytes
      << ",\"mib_per_run\":"
      << fmt(runs ? static_cast<double>(total.bytes) /
                        (kMiB * static_cast<double>(runs))
                  : 0.0)
      << ",\"by_type\":{";
  bool first = true;
  for (const auto& [type, entry] : ledger.by_type()) {
    if (!first) out << ',';
    first = false;
    out << '"' << type << "\":{\"messages\":" << entry.messages
        << ",\"bytes\":" << entry.bytes << '}';
  }
  out << "}}";
}

void write_audit_by_kind(std::ostream& out,
                         const std::map<std::string, std::uint64_t>& by_kind) {
  out << '{';
  bool first = true;
  for (const auto& [kind, count] : by_kind) {  // std::map => name-sorted
    if (!first) out << ',';
    first = false;
    out << '"' << kind << "\":" << count;
  }
  out << '}';
}

// One object per plane, planes in order of first appearance and counters in
// table order: "fault":{"lost":0,...},"healing":{...},...
void write_counters(std::ostream& out, const counters::Values& values) {
  const counters::Counter* t = counters::kTable;
  for (std::size_t i = 0; i < counters::kCount; ++i) {
    const auto same_plane = [&](const counters::Counter& c) {
      return c.plane == t[i].plane;
    };
    if (std::any_of(t, t + i, same_plane)) continue;  // already written
    out << (i == 0 ? "\"" : ",\"") << t[i].plane << "\":{";
    for (std::size_t j = i; j < counters::kCount; ++j) {
      if (!same_plane(t[j])) continue;
      out << (j == i ? "\"" : ",\"") << t[j].name << "\":" << values[j];
    }
    out << '}';
  }
}

}  // namespace

SweepReport SweepReport::build(
    const std::vector<RunSpec>& specs,
    const std::vector<workload::RunResult>& results) {
  if (specs.size() != results.size()) {
    throw std::invalid_argument("sweep report: spec/result count mismatch");
  }
  SweepReport report;
  report.total_runs = results.size();
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    const workload::RunResult& r = results[i];

    RunRow run;
    run.label = spec.label;
    run.scenario = spec.config.name;
    run.seed = spec.seed;
    run.completed = r.completed();
    run.completion_minutes = r.mean_completion_minutes();
    run.waiting_minutes = r.mean_waiting_minutes();
    run.execution_minutes = r.mean_execution_minutes();
    run.reschedules = r.tracker.total_reschedules();
    run.missed_deadlines = r.missed_deadlines();
    run.stranded = r.stranded();
    run.violations = r.tracker.violations().size();
    const auto traffic = r.traffic.total();
    run.traffic_messages = traffic.messages;
    run.traffic_bytes = traffic.bytes;
    run.events_fired = r.events_fired;
    run.final_nodes = r.final_node_count;
    run.audit_violations = r.audit_violations;
    run.counters = workload::counter_values(r);

    if (spec.rep_index != 0 &&
        (report.rows.empty() || report.rows.back().label != spec.label)) {
      throw std::invalid_argument(
          "sweep report: specs are not in expand() order (row-major, seeds "
          "ascending)");
    }
    if (spec.rep_index == 0) {
      RowSummary row;
      row.label = spec.label;
      row.scenario = spec.config.name;
      row.nodes = spec.config.node_count;
      row.jobs = spec.config.job_count;
      row.base_seed = spec.seed;
      report.rows.push_back(std::move(row));
    }
    RowSummary& row = report.rows.back();
    counters::fold(row.counters, run.counters);
    report.runs.push_back(std::move(run));
    ++row.runs;
    row.completed.add(static_cast<double>(r.completed()));
    row.completion_minutes.add(r.mean_completion_minutes());
    row.waiting_minutes.add(r.mean_waiting_minutes());
    row.execution_minutes.add(r.mean_execution_minutes());
    row.reschedules.add(static_cast<double>(r.tracker.total_reschedules()));
    row.missed_deadlines.add(static_cast<double>(r.missed_deadlines()));
    row.traffic_mib.add(static_cast<double>(traffic.bytes) / kMiB);
    row.stranded += r.stranded();
    row.violations += r.tracker.violations().size();
    row.traffic.merge(r.traffic);
    row.audit_violations += r.audit_violations;
    for (const auto& [kind, count] : r.audit_by_kind) {
      row.audit_by_kind[kind] += count;
      report.audit_by_kind[kind] += count;
    }

    report.total_stranded += r.stranded();
    report.total_violations += r.tracker.violations().size();
    report.total_audit_violations += r.audit_violations;
    report.traffic.merge(r.traffic);
  }
  return report;
}

void SweepReport::write_json(std::ostream& out) const {
  out << "{\"schema\":\"aria-sweep-report-v2\",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const RowSummary& row = rows[i];
    if (i != 0) out << ',';
    out << "{\"label\":\"" << row.label << "\",\"scenario\":\""
        << row.scenario << "\",\"nodes\":" << row.nodes
        << ",\"jobs\":" << row.jobs << ",\"base_seed\":" << row.base_seed
        << ",\"runs\":" << row.runs << ',';
    write_stats(out, "completed", row.completed);
    out << ',';
    write_stats(out, "completion_minutes", row.completion_minutes);
    out << ',';
    write_stats(out, "waiting_minutes", row.waiting_minutes);
    out << ',';
    write_stats(out, "execution_minutes", row.execution_minutes);
    out << ',';
    write_stats(out, "reschedules", row.reschedules);
    out << ',';
    write_stats(out, "missed_deadlines", row.missed_deadlines);
    out << ',';
    write_stats(out, "traffic_mib", row.traffic_mib);
    out << ",\"stranded\":" << row.stranded
        << ",\"violations\":" << row.violations << ',';
    write_counters(out, row.counters);
    out << ",\"audit\":{\"violations\":" << row.audit_violations
        << ",\"by_kind\":";
    write_audit_by_kind(out, row.audit_by_kind);
    out << "},\"traffic\":";
    write_traffic(out, row.traffic, row.runs);
    out << '}';
  }
  out << "],\"totals\":{\"runs\":" << total_runs
      << ",\"stranded\":" << total_stranded
      << ",\"violations\":" << total_violations
      << ",\"audit_violations\":" << total_audit_violations
      << ",\"audit_by_kind\":";
  write_audit_by_kind(out, audit_by_kind);
  out << ",\"traffic\":";
  write_traffic(out, traffic, total_runs);
  out << "}}\n";
}

void SweepReport::write_summary_csv(std::ostream& out) const {
  out << "label,scenario,runs,nodes,jobs,base_seed,"
         "completed_mean,completed_stddev,"
         "completion_min_mean,completion_min_stddev,"
         "waiting_min_mean,execution_min_mean,"
         "reschedules_mean,missed_deadlines_mean,"
         "stranded,violations,traffic_mib_mean,audit_violations";
  for (const counters::Counter& c : counters::kTable) out << ',' << c.name;
  out << '\n';
  for (const RowSummary& row : rows) {
    out << row.label << ',' << row.scenario << ',' << row.runs << ','
        << row.nodes << ',' << row.jobs << ',' << row.base_seed << ','
        << fmt(row.completed.mean()) << ',' << fmt(row.completed.stddev())
        << ',' << fmt(row.completion_minutes.mean()) << ','
        << fmt(row.completion_minutes.stddev()) << ','
        << fmt(row.waiting_minutes.mean()) << ','
        << fmt(row.execution_minutes.mean()) << ','
        << fmt(row.reschedules.mean()) << ','
        << fmt(row.missed_deadlines.mean()) << ',' << row.stranded << ','
        << row.violations << ',' << fmt(row.traffic_mib.mean()) << ','
        << row.audit_violations;
    for (const std::uint64_t v : row.counters) out << ',' << v;
    out << '\n';
  }
}

void SweepReport::write_runs_csv(std::ostream& out) const {
  out << "label,scenario,seed,completed,completion_minutes,waiting_minutes,"
         "execution_minutes,reschedules,missed_deadlines,stranded,"
         "violations,traffic_messages,traffic_bytes,events_fired,"
         "final_nodes,audit_violations";
  for (const counters::Counter& c : counters::kTable) out << ',' << c.name;
  out << '\n';
  for (const RunRow& run : runs) {
    out << run.label << ',' << run.scenario << ',' << run.seed << ','
        << run.completed << ',' << fmt(run.completion_minutes) << ','
        << fmt(run.waiting_minutes) << ',' << fmt(run.execution_minutes)
        << ',' << run.reschedules << ',' << run.missed_deadlines << ','
        << run.stranded << ',' << run.violations << ','
        << run.traffic_messages << ',' << run.traffic_bytes << ','
        << run.events_fired << ',' << run.final_nodes << ','
        << run.audit_violations;
    for (const std::uint64_t v : run.counters) out << ',' << v;
    out << '\n';
  }
}

}  // namespace aria::sweep
