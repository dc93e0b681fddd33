// The counter table (common/counters.hpp) is the single declaration of every
// plane counter; these tests pin that each entry reaches every generated
// surface — RunResult, run_fingerprint, both sweep CSVs, summary.json — that
// folds honour each entry's agg, and that docs/counters.md is the rendered
// table.
#include "common/counters.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sweep/report.hpp"
#include "workload/engine.hpp"
#include "workload/scenario.hpp"

namespace aria {
namespace {

using counters::Agg;
using counters::kCount;
using counters::kTable;
using workload::RunResult;

/// A RunResult whose table counters are all zero except entry `k`.
RunResult only(std::size_t k, std::uint64_t value) {
  RunResult r;
  std::size_t i = 0;
  workload::for_each_counter(r, [&](const counters::Counter&,
                                    std::uint64_t& v) {
    if (i++ == k) v = value;
  });
  return r;
}

std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::stringstream ss{line};
  std::string cell;
  while (std::getline(ss, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Header and first data row of a CSV rendering.
std::pair<std::vector<std::string>, std::vector<std::string>> csv_head(
    const std::string& csv) {
  std::istringstream in{csv};
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  return {split_csv(header), split_csv(row)};
}

std::string cell(const std::pair<std::vector<std::string>,
                                 std::vector<std::string>>& csv,
                 std::string_view column) {
  const auto& [header, row] = csv;
  const auto it = std::find(header.begin(), header.end(), column);
  if (it == header.end() || row.size() != header.size()) return "<missing>";
  return row[static_cast<std::size_t>(it - header.begin())];
}

TEST(CounterTable, NamesAreUniqueAcrossAllLists) {
  std::set<std::string_view> names;
  for (const counters::Counter& c : kTable) {
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate: " << c.name;
  }
  EXPECT_EQ(names.size(), kCount);
}

TEST(CounterTable, PlanesAreContiguous) {
  // summary.json emits one object per plane by walking the table once.
  std::set<std::string_view> closed;
  for (std::size_t i = 1; i < kCount; ++i) {
    if (kTable[i].plane != kTable[i - 1].plane) {
      closed.insert(kTable[i - 1].plane);
      EXPECT_FALSE(closed.contains(kTable[i].plane)) << kTable[i].name;
    }
  }
}

TEST(CounterTable, EveryEntryReachesFingerprintCsvAndJson) {
  sweep::RunSpec spec;
  spec.label = "row";
  spec.config.name = "table";
  for (std::size_t k = 0; k < kCount; ++k) {
    const std::string name{kTable[k].name};
    const std::uint64_t value = 1000003 + k;
    const RunResult r = only(k, value);
    EXPECT_EQ(workload::counter_values(r)[k], value) << name;

    EXPECT_NE(workload::run_fingerprint(r).find(
                  "\ncounter " + name + " " + std::to_string(value) + "\n"),
              std::string::npos)
        << name;

    const sweep::SweepReport report = sweep::SweepReport::build({spec}, {r});
    std::ostringstream runs, summary, json;
    report.write_runs_csv(runs);
    report.write_summary_csv(summary);
    report.write_json(json);
    EXPECT_EQ(cell(csv_head(runs.str()), name), std::to_string(value)) << name;
    EXPECT_EQ(cell(csv_head(summary.str()), name), std::to_string(value))
        << name;
    const std::string plane = "\"" + std::string{kTable[k].plane} + "\":{";
    const auto at = json.str().find(plane);
    ASSERT_NE(at, std::string::npos) << name;
    const auto end = json.str().find('}', at);
    EXPECT_NE(json.str().substr(at, end - at).find(
                  "\"" + name + "\":" + std::to_string(value)),
              std::string::npos)
        << name;
  }
}

TEST(CounterTable, FaultAbsorbFoldsByAgg) {
  RunResult a, b;
  std::size_t i = 0;
  workload::for_each_counter(a, [&](const counters::Counter&,
                                    std::uint64_t& v) { v = 3 + i++; });
  i = 0;
  workload::for_each_counter(b, [&](const counters::Counter&,
                                    std::uint64_t& v) { v = 40 - i++; });
  const counters::Values va = workload::counter_values(a);
  const counters::Values vb = workload::counter_values(b);
  a.faults.absorb(b.faults);
  const counters::Values folded = workload::counter_values(a);
  for (std::size_t k = 0; k < kCount; ++k) {
    if (kTable[k].plane != "fault") continue;
    const std::uint64_t expected = kTable[k].agg == Agg::max
                                       ? std::max(va[k], vb[k])
                                       : va[k] + vb[k];
    EXPECT_EQ(folded[k], expected) << kTable[k].name;
  }
}

TEST(CounterTable, HarvestFoldsNodeCountersByAgg) {
  // A saturated grid, so queue high-water marks differ across nodes and a
  // sum would not equal the max.
  workload::ScenarioConfig cfg = workload::scenario_by_name("iMixed");
  cfg.node_count = 30;
  cfg.job_count = 120;
  cfg.submission_interval = Duration::seconds(5);
  cfg.horizon = Duration::hours(12);
  cfg.aria.overload.enabled = true;
  workload::GridSimulation sim{cfg, 7};
  const RunResult r = sim.run();

  counters::Values expected{};
  std::uint64_t peak_sum = 0;
  for (const proto::AriaNode* n : sim.all_nodes()) {
    RunResult one;  // this node's values alone, via the owners' fields
    counters::fold_healing(one, n->neighbor_view().stats());
    counters::fold_node(one, n->counters());
    counters::fold(expected, workload::counter_values(one));
    peak_sum += n->counters().peak_queue_depth;
  }
  const counters::Values got = workload::counter_values(r);
  for (std::size_t k = 0; k < kCount; ++k) {
    if (kTable[k].plane == "fault") continue;
    EXPECT_EQ(got[k], expected[k]) << kTable[k].name;
  }
  EXPECT_GT(peak_sum, r.peak_queue_depth);  // max, not sum
  EXPECT_GT(r.accepts_sent, 0u);
}

/// The table as docs/counters.md carries it between its markers.
std::string render_table() {
  std::ostringstream os;
  os << "| name | plane | agg | meaning |\n|---|---|---|---|\n";
  for (const counters::Counter& c : kTable) {
    os << "| `" << c.name << "` | " << c.plane << " | "
       << (c.agg == Agg::max ? "max" : "sum") << " | " << c.doc << " |\n";
  }
  return os.str();
}

TEST(CounterTable, DocsTableIsTheRenderedRegistry) {
  std::ifstream in{ARIA_SOURCE_DIR "/docs/counters.md"};
  ASSERT_TRUE(in) << "docs/counters.md not found";
  const std::string doc{std::istreambuf_iterator<char>{in}, {}};
  const std::string begin = "<!-- counter table: begin -->\n";
  const std::string end = "<!-- counter table: end -->";
  const auto b = doc.find(begin);
  const auto e = doc.find(end);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(e, std::string::npos);
  const std::string table = doc.substr(b + begin.size(), e - b - begin.size());
  EXPECT_EQ(table, render_table())
      << "docs/counters.md is stale; replace the table with:\n"
      << render_table();
}

}  // namespace
}  // namespace aria
