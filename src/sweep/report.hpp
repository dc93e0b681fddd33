// Deterministic merged reports over a sweep's RunResults.
//
// build() folds results in matrix order (row-major, seeds ascending — the
// order expand() produced, independent of which worker finished what when),
// so every emitted byte is a pure function of (matrix, seeds). The JSON and
// CSV writers render doubles with the same fixed "%.9g" the trace exporters
// use; nondeterministic measurements (wall-clock) are deliberately excluded
// — timing lives in BENCH_sweep_scaling.json, not in the report files. See
// docs/sweep.md for the determinism contract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/stats.hpp"
#include "sim/traffic.hpp"
#include "sweep/matrix.hpp"
#include "workload/engine.hpp"

namespace aria::sweep {

/// One executed run, flattened to the scalar metrics the reports carry.
struct RunRow {
  std::string label;
  std::string scenario;
  std::uint64_t seed{0};
  std::size_t completed{0};
  double completion_minutes{0.0};
  double waiting_minutes{0.0};
  double execution_minutes{0.0};
  std::uint64_t reschedules{0};
  std::size_t missed_deadlines{0};
  std::size_t stranded{0};
  std::size_t violations{0};
  std::uint64_t traffic_messages{0};
  std::uint64_t traffic_bytes{0};
  std::uint64_t events_fired{0};
  std::size_t final_nodes{0};
  // Invariant auditor (zero when --audit is off; see docs/audit.md).
  std::uint64_t audit_violations{0};
  /// Every plane counter, in counters::kTable order (docs/counters.md).
  ::aria::counters::Values counters{};
};

/// Welford aggregate over one matrix row (every seed of one label).
struct RowSummary {
  std::string label;
  std::string scenario;
  std::size_t nodes{0};
  std::size_t jobs{0};
  std::uint64_t base_seed{0};
  std::size_t runs{0};

  RunningStats completed;
  RunningStats completion_minutes;
  RunningStats waiting_minutes;
  RunningStats execution_minutes;
  RunningStats reschedules;
  RunningStats missed_deadlines;
  RunningStats traffic_mib;

  std::uint64_t stranded{0};    // summed over the row's runs
  std::uint64_t violations{0};  // summed lifecycle violations
  sim::TrafficLedger traffic;   // summed; divide by runs for per-run means

  /// Plane counters folded over the row's runs by each entry's agg (sum,
  /// or max for high-water marks), in counters::kTable order.
  ::aria::counters::Values counters{};
  // Auditor violations, summed plus per-kind (std::map => name-sorted).
  std::uint64_t audit_violations{0};
  std::map<std::string, std::uint64_t> audit_by_kind;
};

struct SweepReport {
  std::vector<RowSummary> rows;  // matrix row order
  std::vector<RunRow> runs;      // matrix order: row-major, seeds ascending

  std::size_t total_runs{0};
  std::uint64_t total_stranded{0};
  std::uint64_t total_violations{0};
  std::uint64_t total_audit_violations{0};
  std::map<std::string, std::uint64_t> audit_by_kind;  // name-sorted
  sim::TrafficLedger traffic;  // summed over every run

  /// The sweep's verdict: no stranded job, no lifecycle violation and no
  /// auditor violation in any run (aria_sweep exits 1 otherwise).
  bool clean() const {
    return total_stranded == 0 && total_violations == 0 &&
           total_audit_violations == 0;
  }

  /// Folds results (indexed like specs, the expand() order) into the
  /// report. Never reorders: two calls with the same inputs produce
  /// identical reports regardless of how the results were computed.
  static SweepReport build(const std::vector<RunSpec>& specs,
                           const std::vector<workload::RunResult>& results);

  /// summary.json: per-row stats + traffic tables + totals.
  void write_json(std::ostream& out) const;
  /// summary.csv: one line per matrix row.
  void write_summary_csv(std::ostream& out) const;
  /// runs.csv: one line per run — the serial-golden anchor (`--workers 1`
  /// rows equal the metrics of plain run_scenario calls).
  void write_runs_csv(std::ostream& out) const;
};

}  // namespace aria::sweep
